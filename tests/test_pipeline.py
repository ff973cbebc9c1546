"""Pipeline stages: corpora, training stream, leakage audit, comparisons."""

import ctypes
import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from uniboost.config import (ConfigError, ExperimentConfig, TaskSpec, config_fingerprint,
                             world_config)
from uniboost import pipeline
from uniboost.metrics import round_half_up, vqa_accuracy
from uniboost.model import TaskModel
from uniboost.pipeline import (DataError, LeakageError, RunRecord, audit_leakage,
                               build_corpora, compare_streams, comparison_csv,
                               emit_comparison, eval_stage, finetune_stage,
                               load_encoders, load_model, pretrain_stage,
                               run_stream, save_encoders, save_model, tune_allocator,
                               write_corpora_manifest)
from uniboost.scheduler import apply_augmentation
from uniboost.shapeworld import (build_vocabulary, class_id, gen_single_shape_corpus,
                                 write_manifest)
from uniboost.tensorio import load_checkpoint


FOUR_TASKS = [TaskSpec("seg", "language-guided-vision", "seg", 4),
              TaskSpec("cls", "image-only", "cls", 4),
              TaskSpec("cap", "image-to-text-gen", "caption", 4),
              TaskSpec("vqa", "deep-fusion", "vqa", 4)]


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
    """Each mode trains the model's own encoder tensors in place and leaves
    the neck and heads untouched."""
    cfg, triple, vocab = corpus_and_vocab
    both = ("image_encoder.", "text_encoder.")
    for mode, keys, trained in [("supervised", {"supervised"}, ("image_encoder.",)),
                                ("pair-contrastive", {"contrastive"}, both),
                                ("masked-unimodal", {"mim", "mlm"}, both)]:
        mode_cfg = replace(cfg, pretrain_mode=mode)
        model = TaskModel(mode_cfg, vocab, seed=0)
        before = {name: (p, p.values.copy()) for name, p in model.named_parameters()}
        losses = pretrain_stage(mode_cfg, 0, triple, model)
        assert set(losses) == keys
        for trace in losses.values():
            assert len(trace) == cfg.pretrain_steps
            assert all(np.isfinite(v) for v in trace)
        for name, p in model.named_parameters():
            tensor, values = before[name]
            assert p is tensor, (mode, name)
            assert np.array_equal(p.values, values) != name.startswith(trained), (mode, name)


def test_finetune_stage_trains_and_tracks_tokens(corpus_and_vocab):
    cfg, triple, vocab = corpus_and_vocab
    model = TaskModel(cfg, vocab, seed=0)
    fin = finetune_stage(cfg, 0, triple, model)
    assert len(fin.trace) == cfg.steps
    assert len(fin.losses["seg"]) == cfg.steps
    # rebalance inflated 8 paired samples to >= 16 via augmented copies
    assert any("#aug" in line for line in fin.trace)
    # paired corpus is base-only, so no novel token or label may appear
    assert set(cfg.novel_shapes) & fin.training_tokens == set()
    novel_ids = {class_id(s) for s in cfg.novel_shapes}
    assert novel_ids & fin.training_labels == set()


def test_frozen_finetune_never_tapes_the_encoders(corpus_and_vocab):
    cfg, triple, vocab = corpus_and_vocab
    frozen = replace(cfg, freeze_encoders=True)
    model = TaskModel(frozen, vocab, seed=0)
    before = {name: p.values.copy() for name, p in model.named_parameters()}
    fin = finetune_stage(frozen, 0, triple, model)
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
        finetune_stage(bare, 0, triple, model)


def test_multihead_roster_smoke(corpus_and_vocab):
    cfg, triple, vocab = corpus_and_vocab
    roster = tiny_cfg(steps=4, tasks=FOUR_TASKS)
    model = TaskModel(roster, vocab, seed=0)
    fin = finetune_stage(roster, 0, triple, model)
    ran = {line.split("\t")[2] for line in fin.trace}
    assert ran <= {"seg", "cls", "cap", "vqa"}
    assert sum(len(v) for v in fin.losses.values()) == 4


def test_each_derived_sample_is_augmented_once(corpus_and_vocab, monkeypatch):
    cfg, triple, vocab = corpus_and_vocab
    roster = tiny_cfg(steps=1, tasks=FOUR_TASKS)
    calls = []

    def counting(arr, spec):
        calls.append(spec.source_id)
        return apply_augmentation(arr, spec)

    monkeypatch.setattr(pipeline, "apply_augmentation", counting)
    finetune_stage(roster, 0, triple, TaskModel(roster, vocab, seed=0))
    # every task doubles the 8 paired samples under the same 8 derived ids;
    # each derived sample's image and mask are augmented once
    assert len(triple.paired) == 8 and roster.rebalance_threshold == 16
    assert sorted(calls) == sorted(2 * [s.sample_id for s in triple.paired])


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

    def oracle(img, prompts, class_names):
        return np.stack([next(truth) for _ in range(img.shape[0])])

    monkeypatch.setattr(model, "seg_predict", oracle)
    report = eval_stage(cfg, model, "novel", training_tokens=set(), training_labels=set())
    assert report["miou"] == 1.0
    assert report["fb_iou"] == 1.0
    assert report["pix_acc"] == 1.0


def test_eval_stage_vqa_matches_one_image_decoding(corpus_and_vocab, monkeypatch):
    cfg, _, vocab = corpus_and_vocab
    cfg = replace(cfg, eval_samples=20)  # a full chunk of 16 and a partial one
    model = TaskModel(cfg, vocab, seed=0)
    generate, batches = model.generate_answer, []

    def recording(img, questions):
        batches.append(generate(img, questions))
        return batches[-1]

    monkeypatch.setattr(model, "generate_answer", recording)
    report = eval_stage(cfg, model, "base", eval_vqa=True)
    assert [len(b) for b in batches] == [16, 4]
    corpus = gen_single_shape_corpus(world_config(cfg), tuple(report["classes"]),
                                     cfg.eval_samples, seed=11, prefix="base-eval")
    answers = [generate(model.image_seq(s.image[None]),
                        np.array([vocab.encode(s.question)]))[0] for s in corpus]
    assert sum(batches, []) == answers
    per_type, _ = vqa_accuracy([("other", a, s.answer) for a, s in zip(answers, corpus)])
    want = dict(eval_stage(cfg, model, "base"), vqa_exact_match=per_type.get("other", 0.0))
    assert report == want


# ---------------------------------------------------------------- streams

def test_run_stream_record(corpus_and_vocab):
    cfg, triple, _ = corpus_and_vocab
    record = run_stream(cfg, 0, triple)
    assert record.config_hash == config_fingerprint(cfg)
    assert record.seed == 0
    assert "finetune/seg" in record.losses
    assert 0.0 <= record.metrics["novel"]["miou"] <= 1.0
    assert record.wall_time > 0
    parsed = json.loads(record.to_json())
    assert parsed["config_hash"] == record.config_hash


# sha256 of one tiny stream's loss traces and novel-split metrics per
# pretrain mode, with every head trained once. A change that moves any float
# bit of the engine fails here in seconds; one that does so on purpose
# updates these values and says so.
BEHAVIOUR_FINGERPRINTS = {
    "supervised": "8386a368aff8e464f78d4d9e4faf9783afffe16b57e021a7fe1421804d4c2362",
    "pair-contrastive": "bc2bdd0a9db633a501e2e42d2e62ec65e0d8ea0821b1cfee8e729724221c7ba3",
    "masked-unimodal": "2974dbfe464d3a1a92396c25afc2716e7b3ffe5b2a0105ddcfa2c7c668f948ab",
}


@pytest.mark.parametrize("mode", sorted(BEHAVIOUR_FINGERPRINTS))
def test_behaviour_fingerprint_does_not_drift(mode):
    cfg = tiny_cfg(pretrain_mode=mode, pretrain_steps=3, steps=4, eval_samples=4,
                   tasks=FOUR_TASKS)
    record = run_stream(cfg, 0, build_corpora(cfg))
    blob = json.dumps([record.losses, record.metrics], sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == BEHAVIOUR_FINGERPRINTS[mode]


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
    with pytest.raises(ConfigError, match="at least one seed"):
        compare_streams(configs, seeds=[])
    for seeds in ([0, 0, 1], [0, -1]):
        with pytest.raises(ConfigError, match="must be distinct and non-negative"):
            compare_streams(configs, seeds=seeds)


def test_compare_output_does_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    configs = {"A": tiny_cfg(pretrain_mode="pair-contrastive"),
               "B": tiny_cfg(pretrain_mode="masked-unimodal")}
    seeds = [0, 1]
    pool_sizes = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pool_sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", RecordingPool)
    reports = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        reports.append(compare_streams(configs, seeds))
    assert pool_sizes == [1, 2]
    emitted = [emit_comparison(r, tmp_path / f"w{i}")[0].read_bytes()
               for i, r in enumerate(reports)]
    assert emitted[0] == emitted[1]

    # the same numbers as a plain serial loop of run_stream in this process
    novel = {(name, seed): run_stream(cfg, seed, build_corpora(cfg)).metrics["novel"]
             for name, cfg in configs.items() for seed in seeds}
    report = reports[1]
    assert [(r.stream, r.seed) for r in report.rows] == sorted(novel)
    for row in report.rows:
        scores = novel[(row.stream, row.seed)]
        assert row.fold_scores == {"novel": round_half_up(100 * scores["miou"], 1)}
        assert row.fb == round_half_up(100 * scores["fb_iou"], 1)
    assert report.stream_means == {
        name: float(np.mean([novel[(name, s)]["miou"] for s in seeds])) for name in configs}


PIPED_COMPARE = """
from uniboost.config import ExperimentConfig, TaskSpec
from uniboost.pipeline import compare_streams
cfg = dict(layers=1, width=16, heads=2, patch_size=4, max_tokens=40, vocab_size=32,
           fusion_layers=1, fusion_heads=2, common_width=16, layer_set=(1,),
           grid_size=16, samples_per_corpus=8, pretrain_steps=1, steps=1,
           eval_samples=2, tasks=[TaskSpec("seg", "language-guided-vision", "seg", 4)])
compare_streams({"A": ExperimentConfig(pretrain_mode="pair-contrastive", **cfg),
                 "B": ExperimentConfig(pretrain_mode="masked-unimodal", **cfg)}, [0])
"""


def test_compare_from_a_piped_script_is_refused_before_the_pool_starts():
    # spawned workers import the main module again, and `python -` leaves
    # none on disk to import
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-"], input=PIPED_COMPARE, capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 1
    assert "RuntimeError" in proc.stderr and "save the script to a file" in proc.stderr
    assert "BrokenProcessPool" not in proc.stderr


def _blas_threads_job(cfg, seed):
    """Stands in for ``pipeline._pool_job``: scores a job by its worker's BLAS setting."""
    threads = float(os.environ["OPENBLAS_NUM_THREADS"])
    return RunRecord("", seed, metrics={"novel": {"miou": threads, "fb_iou": threads}})


def test_workers_get_one_blas_thread_and_the_caller_keeps_its_setting(monkeypatch):
    configs = {"A": tiny_cfg(pretrain_mode="pair-contrastive"),
               "B": tiny_cfg(pretrain_mode="masked-unimodal")}
    monkeypatch.setattr(pipeline, "_pool_job", _blas_threads_job)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert compare_streams(configs, seeds=[0]).stream_means == {"A": 1.0, "B": 1.0}
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    assert compare_streams(configs, seeds=[0]).stream_means == {"A": 1.0, "B": 1.0}
    assert "OPENBLAS_NUM_THREADS" not in os.environ


def test_pool_job_reuses_one_read_only_corpus_per_process(monkeypatch):
    monkeypatch.setattr(pipeline, "_corpora", {})
    monkeypatch.setattr(pipeline, "run_stream", lambda cfg, seed, triple: triple)
    a = pipeline._pool_job(tiny_cfg(pretrain_mode="pair-contrastive"), 0)
    assert pipeline._pool_job(tiny_cfg(pretrain_mode="masked-unimodal"), 1) is a
    assert pipeline._pool_job(tiny_cfg(data_seed=1), 0) is not a
    for arr in (a.paired[0].image, a.paired[0].mask, a.image_only[0].image):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1


def test_tune_allocator_is_harmless(monkeypatch):
    tune_allocator()
    tune_allocator()  # setting it twice changes nothing

    calls = []

    def mallopt(*args):
        calls.append(args)
        return 1

    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    tune_allocator()
    assert calls == [(-2, 512 << 20)]  # M_TOP_PAD

    def no_glibc(name):
        raise OSError(f"{name}: cannot open shared object file")

    monkeypatch.setattr(ctypes, "CDLL", no_glibc)
    tune_allocator()


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
    model = TaskModel(cfg, vocab, seed=1)
    pretrain_stage(cfg, 1, triple, model)
    save_encoders(model, cfg, tmp_path / "enc")
    encoders = {p.name for p in model.encoder_parameters()}
    assert set(load_checkpoint(tmp_path / "enc")) == encoders
    back = load_encoders(cfg, tmp_path / "enc", seed=1)
    fresh = dict(TaskModel(cfg, vocab, seed=1).named_parameters())
    trained = dict(model.named_parameters())
    for name, p in back.named_parameters():
        if name in encoders:
            want = trained[name].values.astype(np.float32).astype(np.float64)
        else:
            want = fresh[name].values
        assert np.array_equal(p.values, want), name
    with pytest.raises(DataError, match="missing encoder checkpoint"):
        load_encoders(cfg, tmp_path / "ghost", seed=0)
