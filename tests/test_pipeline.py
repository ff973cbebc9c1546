"""Pipeline stages: corpora, training stream, leakage audit, comparisons."""

import json
from dataclasses import replace

import numpy as np
import pytest

from uniboost.config import ConfigError, ExperimentConfig, TaskSpec, config_fingerprint
from uniboost.model import TaskModel
from uniboost.pipeline import (DataError, LeakageError, audit_leakage,
                               build_corpora, compare_streams, comparison_csv,
                               emit_comparison, eval_stage, finetune_stage,
                               load_encoders, load_model, pretrain_stage,
                               run_stream, save_encoders, save_model,
                               world_config, write_corpora_manifest)
from uniboost.shapeworld import build_vocabulary, class_id, write_manifest


def tiny_cfg(**kw):
    base = dict(layers=1, width=16, heads=2, patch_size=4, max_tokens=40,
                vocab_size=32, fusion_layers=1, fusion_heads=2,
                common_width=16, layer_set=(1,), grid_size=16,
                samples_per_corpus=32, paired_fraction=0.25,
                pretrain_steps=2, steps=4, eval_samples=8,
                rebalance_threshold=16, warmup_steps=1,
                tasks=[TaskSpec("seg", "language-guided-vision", "seg", 4)])
    base.update(kw)
    return ExperimentConfig(**base).validate()


@pytest.fixture(scope="module")
def corpus_and_vocab():
    cfg = tiny_cfg()
    return cfg, build_corpora(cfg), build_vocabulary()


# ---------------------------------------------------------------- plumbing

def test_world_config_copies_fields():
    cfg = tiny_cfg(grid_size=24, family_affinity=0.7, color_affinity=0.9,
                   data_seed=5)
    world = world_config(cfg)
    assert world.grid_size == 24
    assert world.samples_per_corpus == 32
    assert world.paired_fraction == 0.25
    assert world.novel_shapes == ("ring", "diamond")
    assert world.family_affinity == 0.7
    assert world.color_affinity == 0.9
    assert world.seed == 5


def test_build_corpora_sizes(corpus_and_vocab):
    cfg, triple, _ = corpus_and_vocab
    assert len(triple.paired) == 8
    assert len(triple.image_only) == 32
    assert len(triple.text_only) == 32


def test_manifest_round_trip_through_build_corpora(tmp_path):
    cfg = tiny_cfg(samples_per_corpus=8, paired_fraction=0.5)
    manifest = write_corpora_manifest(cfg, tmp_path)
    again = replace(cfg, manifest=str(manifest))
    triple = build_corpora(again)
    direct = build_corpora(cfg)
    assert len(triple.paired) == len(direct.paired) == 4
    assert np.array_equal(triple.paired[0].image, direct.paired[0].image)
    assert triple.text_only[1].caption == direct.text_only[1].caption

    partial = tmp_path / "partial"
    write_manifest(partial, {"paired": direct.paired})
    broken = replace(cfg, manifest=str(partial / "manifest.tsv"))
    with pytest.raises(DataError, match="manifest lacks corpora"):
        build_corpora(broken)


# ---------------------------------------------------------------- stages

def test_pretrain_stage_all_modes(corpus_and_vocab):
    cfg, triple, vocab = corpus_and_vocab
    for mode, keys in [("supervised", {"supervised"}),
                       ("pair-contrastive", {"contrastive"}),
                       ("masked-unimodal", {"mim", "mlm"})]:
        pre = pretrain_stage(replace(cfg, pretrain_mode=mode), 0, triple, vocab)
        assert set(pre.losses) == keys
        for trace in pre.losses.values():
            assert len(trace) == cfg.pretrain_steps
            assert all(np.isfinite(v) for v in trace)


def test_finetune_stage_trains_and_tracks_tokens(corpus_and_vocab):
    cfg, triple, vocab = corpus_and_vocab
    model = TaskModel(cfg, vocab, seed=0)
    fin = finetune_stage(cfg, 0, triple, vocab, model)
    assert len(fin.trace) == cfg.steps
    assert len(fin.losses["seg"]) == cfg.steps
    # rebalance inflated 8 paired samples to >= 16 via augmented copies
    assert any("#aug" in sid for sid in fin.store)
    # paired corpus is base-only, so no novel token or label may appear
    assert set(cfg.novel_shapes) & fin.training_tokens == set()
    novel_ids = {class_id(s) for s in cfg.novel_shapes}
    assert novel_ids & fin.training_labels == set()


def test_frozen_finetune_never_tapes_the_encoders(corpus_and_vocab):
    cfg, triple, vocab = corpus_and_vocab
    frozen = replace(cfg, freeze_encoders=True)
    model = TaskModel(frozen, vocab, seed=0)
    before = {name: p.values.copy() for name, p in model.named_parameters()}
    fin = finetune_stage(frozen, 0, triple, vocab, model)
    assert len(fin.losses["seg"]) == frozen.steps
    assert all(p.grad is None for p in model.parameters())
    moved = {name for name, p in model.named_parameters()
             if not np.array_equal(p.values, before[name])}
    assert moved and not moved & {p.name for p in model.encoder_parameters()}


def test_finetune_requires_tasks(corpus_and_vocab):
    cfg, triple, vocab = corpus_and_vocab
    bare = replace(cfg, tasks=[])
    model = TaskModel(cfg, vocab, seed=0)
    with pytest.raises(ConfigError, match="no \\[task"):
        finetune_stage(bare, 0, triple, vocab, model)


def test_multihead_roster_smoke(corpus_and_vocab):
    cfg, triple, vocab = corpus_and_vocab
    roster = tiny_cfg(steps=4, tasks=[
        TaskSpec("seg", "language-guided-vision", "seg", 4),
        TaskSpec("cls", "image-only", "cls", 4),
        TaskSpec("cap", "image-to-text-gen", "caption", 4),
        TaskSpec("vqa", "deep-fusion", "vqa", 4),
    ])
    model = TaskModel(roster, vocab, seed=0)
    fin = finetune_stage(roster, 0, triple, vocab, model)
    ran = {line.split("\t")[2] for line in fin.trace}
    assert ran <= {"seg", "cls", "cap", "vqa"}
    assert sum(len(v) for v in fin.losses.values()) == 4


# ---------------------------------------------------------------- leakage

def test_audit_leakage_detects_tokens_and_labels():
    audit_leakage(("ring",), {"red", "square"}, {0, 1})
    with pytest.raises(LeakageError, match="ring"):
        audit_leakage(("ring",), {"ring"}, set())
    with pytest.raises(LeakageError, match="diamond"):
        audit_leakage(("diamond",), set(), {class_id("diamond")})


def test_eval_stage_runs_leakage_audit(corpus_and_vocab):
    cfg, _, vocab = corpus_and_vocab
    model = TaskModel(cfg, vocab, seed=0)
    with pytest.raises(LeakageError):
        eval_stage(cfg, model, "novel", training_tokens={"ring"},
                   training_labels=set())


def test_novel_eval_refuses_without_the_training_sets(corpus_and_vocab):
    cfg, _, vocab = corpus_and_vocab
    model = TaskModel(cfg, vocab, seed=0)
    with pytest.raises(LeakageError, match="audit"):
        eval_stage(cfg, model, "novel")
    with pytest.raises(LeakageError, match="audit"):
        eval_stage(cfg, model, "novel", training_tokens=set())
    with pytest.raises(LeakageError, match="audit"):
        eval_stage(cfg, model, "novel", training_labels=set())


# ---------------------------------------------------------------- eval

def test_eval_stage_report_fields(corpus_and_vocab):
    cfg, _, vocab = corpus_and_vocab
    model = TaskModel(cfg, vocab, seed=0)
    report = eval_stage(cfg, model, "base")
    assert report["split"] == "base"
    assert report["samples"] == cfg.eval_samples
    from uniboost.shapeworld import SHAPES
    assert report["classes"] == [s for s in SHAPES if s not in cfg.novel_shapes]
    assert all(0.0 <= report[k] <= 1.0 for k in ("miou", "fb_iou", "pix_acc"))
    json.dumps(report)  # everything must be plain JSON types
    with pytest.raises(ConfigError, match="unknown split"):
        eval_stage(cfg, model, "test")


def test_eval_stage_oracle_predictor_scores_one(corpus_and_vocab, monkeypatch):
    cfg, _, vocab = corpus_and_vocab
    model = TaskModel(cfg, vocab, seed=0)
    world = world_config(cfg)
    from uniboost.shapeworld import gen_single_shape_corpus
    corpus = gen_single_shape_corpus(world, tuple(cfg.novel_shapes),
                                     cfg.eval_samples, seed=13,
                                     prefix="novel-eval")
    truth = iter([s.mask for s in corpus])

    def oracle(images, class_names):
        return np.stack([next(truth) for _ in range(len(images))])

    monkeypatch.setattr(model, "seg_predict", oracle)
    report = eval_stage(cfg, model, "novel", training_tokens=set(), training_labels=set())
    assert report["miou"] == 1.0
    assert report["fb_iou"] == 1.0
    assert report["pix_acc"] == 1.0


# ---------------------------------------------------------------- streams

def test_run_stream_record(corpus_and_vocab):
    cfg, _, _ = corpus_and_vocab
    record = run_stream(cfg, seed=0)
    assert record.config_hash == config_fingerprint(cfg)
    assert record.seed == 0
    assert "finetune/seg" in record.losses
    assert 0.0 <= record.metrics["novel"]["miou"] <= 1.0
    assert record.wall_time > 0
    parsed = json.loads(record.to_json())
    assert parsed["config_hash"] == record.config_hash


def test_compare_rejects_non_pretrain_differences():
    a = tiny_cfg(pretrain_mode="pair-contrastive")
    b = tiny_cfg(pretrain_mode="masked-unimodal", steps=5)
    with pytest.raises(ConfigError, match="steps"):
        compare_streams({"A": a, "B": b}, seeds=[0])
    with pytest.raises(ConfigError, match="at least two"):
        compare_streams({"A": a}, seeds=[0])


def test_compare_streams_table_and_csv(tmp_path):
    configs = {"A": tiny_cfg(pretrain_mode="pair-contrastive"),
               "B": tiny_cfg(pretrain_mode="masked-unimodal")}
    report = compare_streams(configs, seeds=[0])
    assert len(report.rows) == 2
    assert set(report.win_counts) == {"A", "B"}
    assert sum(report.win_counts.values()) <= 1
    assert set(report.stream_means) == {"A", "B"}

    text = comparison_csv(report)
    lines = text.strip().split("\n")
    assert lines[0] == "row-type,stream,seed,novel,mean,fb-iou"
    assert sum(1 for l in lines if l.startswith("result,")) == 2
    assert sum(1 for l in lines if l.startswith("wins,")) == 2

    csv_path, txt_path = emit_comparison(report, tmp_path)
    assert csv_path.read_text() == text
    assert "wins[A]" in txt_path.read_text()

    again = compare_streams(configs, seeds=[0])
    assert comparison_csv(again) == text  # rerun is byte-identical


# ---------------------------------------------------------------- checkpoints

def test_model_checkpoint_round_trip(tmp_path, corpus_and_vocab):
    cfg, _, vocab = corpus_and_vocab
    model = TaskModel(cfg, vocab, seed=3)
    save_model(model, cfg, tmp_path / "ckpt")
    back = load_model(cfg, tmp_path / "ckpt", seed=99)
    a = dict(model.named_parameters())
    b = dict(back.named_parameters())
    assert set(a) == set(b)
    for name in a:
        assert np.allclose(a[name].values, b[name].values, atol=1e-7), name
    with pytest.raises(DataError, match="missing checkpoint"):
        load_model(cfg, tmp_path / "ghost", seed=0)


def test_encoder_checkpoint_round_trip(tmp_path, corpus_and_vocab):
    cfg, triple, vocab = corpus_and_vocab
    pre = pretrain_stage(cfg, 1, triple, vocab)
    save_encoders(pre, cfg, tmp_path / "enc")
    img, txt = load_encoders(cfg, tmp_path / "enc", seed=1)
    want = pre.image_encoder.patch_proj.weight.values
    assert np.allclose(img.patch_proj.weight.values, want, atol=1e-7)
    with pytest.raises(DataError, match="missing encoder checkpoint"):
        load_encoders(cfg, tmp_path / "ghost", seed=0)
