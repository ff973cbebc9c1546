"""Pipeline stages: corpora, training stream, leakage audit, comparisons."""

import concurrent.futures
import ctypes
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from uniboost.cli import main
from uniboost.config import (ConfigError, ExperimentConfig, TaskSpec, config_fingerprint,
                             serialize_config, world_config)
from uniboost import pipeline, pretrain
from uniboost.metrics import round_half_up, vqa_accuracy
from uniboost.model import TaskModel
from uniboost.neck import ANSWER_TOKENS
from uniboost.nn import EncoderBlock
from uniboost.pipeline import (ENCODER_LR_RATIO, DataError, LeakageError, RunRecord,
                               audit_leakage, build_corpora, compare_streams, comparison_csv,
                               emit_comparison, eval_stage, finetune_stage, load_model,
                               pretrain_stage, run_stream, save_model, tune_allocator)
from uniboost.scheduler import apply_augmentation, rebalance
from uniboost.shapeworld import CORPORA, build_vocabulary, class_id, gen_single_shape_corpus


FOUR_TASKS = [TaskSpec("seg", "language-guided-vision", "seg", 4),
              TaskSpec("cls", "image-only", "cls", 4),
              TaskSpec("cap", "image-to-text-gen", "caption", 4),
              TaskSpec("vqa", "deep-fusion", "vqa", 4)]
ENCODERS = ("image_encoder.", "text_encoder.")


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
    cfg, corpora, _ = corpus_and_vocab
    assert len(corpora["paired"]) == 8
    assert len(corpora["image-only"]) == 32
    assert len(corpora["text-only"]) == 32


@pytest.mark.parametrize("leak", ["caption", "mask"])
def test_build_corpora_audits_the_paired_corpus(monkeypatch, leak):
    """A paired sample whose caption names a novel class, or whose mask
    labels one, stops every read of the paired corpus, so no stage trains
    on it; the unimodal corpora stay readable."""
    generate = pipeline.gen_shapeworld

    def leaky(world, names=CORPORA):
        corpora = generate(world, names)
        if "paired" in corpora:
            s = corpora["paired"][-1]
            if leak == "caption":
                s.caption = "red ring above blue square"
            else:
                s.mask = np.full_like(s.mask, class_id("ring"))
        return corpora

    monkeypatch.setattr(pipeline, "gen_shapeworld", leaky)
    corpora = build_corpora(tiny_cfg())
    assert len(corpora["image-only"]) == len(corpora["text-only"]) == 32
    for _ in range(2):
        with pytest.raises(LeakageError, match=r"novel classes \['ring'\]"):
            corpora["paired"]


def _recording_generator(monkeypatch):
    """Replace ``pipeline.gen_shapeworld`` with one that records the names
    of the corpora it generates; return that record."""
    generate, made = pipeline.gen_shapeworld, []

    def recording(world, names=CORPORA):
        made.extend(names)
        return generate(world, names)

    monkeypatch.setattr(pipeline, "gen_shapeworld", recording)
    return made


def test_build_corpora_generates_nothing_before_a_read(monkeypatch):
    made = _recording_generator(monkeypatch)
    corpora = build_corpora(tiny_cfg())
    assert made == [] and list(corpora) == list(CORPORA) and len(corpora) == 3
    assert corpora["text-only"] is corpora["text-only"]
    assert made == ["text-only"]
    with pytest.raises(KeyError):
        corpora["pairs"]


@pytest.mark.parametrize("mode, reads", [
    ("masked-unimodal", ["image-only", "text-only"]),
    ("pair-contrastive", ["paired"]),
    ("supervised", ["paired"])])
def test_each_stage_generates_only_the_corpora_it_reads(monkeypatch, mode, reads):
    cfg = tiny_cfg(pretrain_mode=mode)
    model = TaskModel(cfg, build_vocabulary(), seed=0)
    made = _recording_generator(monkeypatch)
    pretrain_stage(cfg, 0, build_corpora(cfg), model)
    assert sorted(made) == reads
    made.clear()
    finetune_stage(cfg, 0, build_corpora(cfg), model)
    assert made == ["paired"]


# ---------------------------------------------------------------- stages

def test_pretrain_stage_all_modes(corpus_and_vocab):
    """Each mode trains the model's own encoder tensors in place and leaves
    the neck and heads untouched."""
    cfg, corpora, vocab = corpus_and_vocab
    both = ("image_encoder.", "text_encoder.")
    for mode, keys, trained in [("supervised", {"supervised"}, ("image_encoder.",)),
                                ("pair-contrastive", {"contrastive"}, both),
                                ("masked-unimodal", {"mim", "mlm"}, both)]:
        mode_cfg = replace(cfg, pretrain_mode=mode)
        model = TaskModel(mode_cfg, vocab, seed=0)
        before = {name: (p, p.values.copy()) for name, p in model.named_parameters()}
        losses = pretrain_stage(mode_cfg, 0, corpora, model)
        assert set(losses) == keys
        for trace in losses.values():
            assert len(trace) == cfg.pretrain_steps
            assert all(np.isfinite(v) for v in trace)
        for name, p in model.named_parameters():
            tensor, values = before[name]
            assert p is tensor, (mode, name)
            assert np.array_equal(p.values, values) != name.startswith(trained), (mode, name)


@pytest.mark.parametrize("mode, optimizers", [
    ("supervised", [(("image_encoder.",), ["head.weight", "head.bias"])]),
    ("pair-contrastive", [(ENCODERS, [])]),
    ("masked-unimodal", [(("image_encoder.",),
                          ["mim_head.mask_token", "mim_head.recon.weight",
                           "mim_head.recon.bias"]),
                         (("text_encoder.",), ["mlm_head.bias"])])])
def test_pretraining_names_each_parameter_by_its_module_path(corpus_and_vocab, monkeypatch,
                                                             mode, optimizers):
    """Each optimizer that pretraining builds holds one group, ``model``,
    whose names are the encoders' paths in the model and each head's path
    under its role, so an optimizer error names the parameter."""
    cfg, corpora, vocab = corpus_and_vocab
    mode_cfg = replace(cfg, pretrain_mode=mode)
    model = TaskModel(mode_cfg, vocab, seed=0)
    named = dict(model.named_parameters())
    built = []
    monkeypatch.setattr(pretrain, "train",
                        lambda objectives, steps, losses: built.extend(objectives))
    pretrain_stage(mode_cfg, 0, corpora, model)
    assert len(built) == len(optimizers)
    for (_, opt), (encoders, heads) in zip(built, optimizers):
        assert list(opt.groups) == ["model"]
        slots, _ = opt.groups["model"]
        names = [name for name, *_ in slots]
        assert len(set(names)) == len(names)
        own = [name for name in named if name.startswith(encoders)]
        assert names == own + heads
        assert all(p is named[name] for name, p, _, _ in slots[:len(own)])


@pytest.mark.parametrize("mode, corpus", [("masked-unimodal", "image-only"),
                                         ("pair-contrastive", "paired"),
                                         ("supervised", "paired")])
def test_pretrain_stage_passes_the_corpus_own_image_arrays(corpus_and_vocab, monkeypatch,
                                                          mode, corpus):
    """Pretraining holds no stacked copy of its corpus: it reads the
    corpus's own read-only arrays and stacks each batch as it draws it."""
    cfg, corpora, vocab = corpus_and_vocab
    mode_cfg = replace(cfg, pretrain_mode=mode)
    passed = []
    monkeypatch.setattr(pipeline, "pretrain_run",
                        lambda mode, images, *args, **kw: passed.append(images) or {})
    pretrain_stage(mode_cfg, 0, corpora, TaskModel(mode_cfg, vocab, seed=0))
    [images] = passed
    assert len(images) == len(corpora[corpus])
    assert all(image is s.image for image, s in zip(images, corpora[corpus]))


def test_finetune_stage_trains_and_tracks_tokens(corpus_and_vocab):
    cfg, corpora, vocab = corpus_and_vocab
    model = TaskModel(cfg, vocab, seed=0)
    fin = finetune_stage(cfg, 0, corpora, model)
    assert len(fin.trace) == cfg.steps
    assert len(fin.losses["seg"]) == cfg.steps
    # rebalance inflated 8 paired samples to >= 16 via augmented copies
    assert any("#aug" in line for line in fin.trace)
    # paired corpus is base-only, so no novel token or label may appear
    assert set(cfg.novel_shapes) & fin.training_tokens == set()
    novel_ids = {class_id(s) for s in cfg.novel_shapes}
    assert novel_ids & fin.training_labels == set()


def test_finetune_steps_the_encoders_at_the_encoder_lr_ratio(corpus_and_vocab, monkeypatch):
    cfg, corpora, vocab = corpus_and_vocab
    model = TaskModel(cfg, vocab, seed=0)
    ratios = []

    def recording(objectives, steps, losses):
        [(loss_fn, opt)] = objectives
        assert [name for name, *_ in opt.groups["encoders"][0]] == \
            [name for name, _ in model.named_parameters() if name.startswith(ENCODERS)]
        for _ in range(steps):
            ratios.append((opt.effective_lr("encoders"), opt.effective_lr("rest")))
            train([(loss_fn, opt)], 1, losses)

    train = pipeline.train
    monkeypatch.setattr(pipeline, "train", recording)
    finetune_stage(cfg, 0, corpora, model)
    assert len(ratios) == cfg.steps and ratios[0][1] == cfg.peak_lr
    assert all(enc == ENCODER_LR_RATIO * rest for enc, rest in ratios)


def test_finetune_groups_partition_the_model_parameters_by_name(corpus_and_vocab,
                                                               monkeypatch):
    """Fine-tuning holds every model parameter once, under its module path:
    the encoders at ``ENCODER_LR_RATIO``, the rest at 1.0, each group in
    module-tree order."""
    cfg, corpora, vocab = corpus_and_vocab
    model = TaskModel(cfg, vocab, seed=0)
    built = []
    monkeypatch.setattr(pipeline, "train",
                        lambda objectives, steps, losses: built.extend(objectives))
    finetune_stage(cfg, 0, corpora, model)
    [(_, opt)] = built
    named = dict(model.named_parameters())
    assert {g: mult for g, (_, mult) in opt.groups.items()} == \
        {"rest": 1.0, "encoders": ENCODER_LR_RATIO}
    held = {}
    for gname, (slots, _) in opt.groups.items():
        names = [name for name, *_ in slots]
        assert names == [name for name in named if name in names], gname
        assert all(name.startswith(ENCODERS) == (gname == "encoders") for name in names)
        held.update((name, p) for name, p, _, _ in slots)
    assert sorted(held) == sorted(named)
    assert sum(len(slots) for slots, _ in opt.groups.values()) == len(named)
    assert all(p is named[name] for name, p in held.items())


@pytest.mark.parametrize("mode", ["supervised", "pair-contrastive", "masked-unimodal"])
def test_no_model_parameter_keeps_a_gradient_after_any_step(corpus_and_vocab, monkeypatch,
                                                             mode):
    """Invariant: a parameter that a loss reaches but no optimizer holds
    would keep its ``grad``. After each optimizer step of pretraining and of
    a four-task fine-tune, no model parameter has one."""
    _, corpora, vocab = corpus_and_vocab
    cfg = tiny_cfg(pretrain_mode=mode, tasks=FOUR_TASKS, steps=8)
    model = TaskModel(cfg, vocab, seed=0)
    kept = []

    def checked(objectives, steps, losses):
        for _ in range(steps):
            for objective in objectives:
                train([objective], 1, losses)
                kept.append([name for name, p in model.named_parameters()
                             if p.grad is not None])

    train = pipeline.train
    monkeypatch.setattr(pretrain, "train", checked)
    monkeypatch.setattr(pipeline, "train", checked)
    pretrain_stage(cfg, 0, corpora, model)
    finetune_stage(cfg, 0, corpora, model)
    per_step = 2 if mode == "masked-unimodal" else 1
    assert len(kept) == per_step * cfg.pretrain_steps + cfg.steps
    assert kept == [[]] * len(kept)


def test_finetune_requires_tasks(corpus_and_vocab):
    cfg, corpora, vocab = corpus_and_vocab
    bare = replace(cfg, tasks=[])
    model = TaskModel(cfg, vocab, seed=0)
    with pytest.raises(ConfigError, match="no \\[task"):
        finetune_stage(bare, 0, corpora, model)


def test_multihead_roster_smoke(corpus_and_vocab):
    cfg, corpora, vocab = corpus_and_vocab
    roster = tiny_cfg(steps=4, tasks=FOUR_TASKS)
    model = TaskModel(roster, vocab, seed=0)
    fin = finetune_stage(roster, 0, corpora, model)
    ran = {line.split("\t")[2] for line in fin.trace}
    assert ran <= {"seg", "cls", "cap", "vqa"}
    assert sum(len(v) for v in fin.losses.values()) == 4


def test_every_task_draws_from_one_augmented_pool(corpus_and_vocab, monkeypatch):
    """A four-task roster rebalances once, under the last task's id, route,
    batch size and seed, and every task's dataset holds that pool's ids with
    the task's own seed."""
    cfg, corpora, vocab = corpus_and_vocab
    roster = tiny_cfg(steps=2, tasks=FOUR_TASKS)
    calls, queued = [], []

    def planning(ds, policy):
        pool, plan = rebalance(ds, policy)
        calls.append((ds, pool))
        return pool, plan

    class RecordingQueue(pipeline.DataQueue):
        def __init__(self, datasets, seed):
            queued.extend(datasets)
            super().__init__(datasets, seed)

    monkeypatch.setattr(pipeline, "rebalance", planning)
    monkeypatch.setattr(pipeline, "DataQueue", RecordingQueue)
    finetune_stage(roster, 0, corpora, TaskModel(roster, vocab, seed=0))
    last = FOUR_TASKS[-1]
    [(planned, pool)] = calls
    assert (planned.task_id, planned.route_kind, planned.batch_size, planned.rng_seed) == (
        last.task_id, last.route, last.batch_size, pipeline._task_rng_seed(0, last.task_id))
    assert planned.sample_ids == tuple(s.sample_id for s in corpora["paired"])
    assert len(pool.sample_ids) == 16
    assert [(ds.task_id, ds.route_kind, ds.batch_size, ds.rng_seed) for ds in queued] == [
        (t.task_id, t.route, t.batch_size, pipeline._task_rng_seed(0, t.task_id))
        for t in FOUR_TASKS]
    assert all(ds.sample_ids == pool.sample_ids for ds in queued)


def test_each_derived_sample_is_augmented_once(corpus_and_vocab, monkeypatch):
    """A derived sample is augmented, image and mask once each, when a batch
    first draws it, with the pool's spec for its id; an undrawn one never
    is."""
    cfg, corpora, vocab = corpus_and_vocab
    roster = tiny_cfg(steps=6, tasks=FOUR_TASKS)
    plans, calls = [], []

    def planning(ds, policy):
        ds, plan = rebalance(ds, policy)
        plans.append(plan)
        return ds, plan

    def counting(arr, spec):
        calls.append((spec, arr.ndim))
        return apply_augmentation(arr, spec)

    monkeypatch.setattr(pipeline, "rebalance", planning)
    monkeypatch.setattr(pipeline, "apply_augmentation", counting)
    fin = finetune_stage(roster, 0, corpora, TaskModel(roster, vocab, seed=0))
    # one pool doubles the 8 paired samples under 8 derived ids
    assert len(corpora["paired"]) == 8 and roster.rebalance_threshold == 16
    [plan] = plans
    assert len(plan) == 8
    drawn = {sid for line in fin.trace for sid in line.split("\t")[3].split(",")
             if sid in plan}
    assert 0 < len(drawn) < len(plan)
    assert sorted(calls, key=repr) == sorted(
        [(plan[did], ndim) for did in drawn for ndim in (3, 2)], key=repr)


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

    def oracle(img, prompts, class_names, keep_kv):
        assert keep_kv is None  # no decode follows, so no keys and values are kept
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

    def recording(img, questions, image_kv):
        batches.append(generate(img, questions, image_kv))
        return batches[-1]

    monkeypatch.setattr(model, "generate_answer", recording)
    report = eval_stage(cfg, model, "base", eval_vqa=True)
    assert [len(b) for b in batches] == [16, 4]
    corpus = gen_single_shape_corpus(world_config(cfg), tuple(report["classes"]),
                                     cfg.eval_samples, seed=11, prefix="base-eval")
    answers = []
    for s in corpus:  # one image at a time, with its own image rows' K/V
        img, image_kv = model.image_seq(s.image[None]), []
        model.neck.fusion_forward(img, keep_kv=image_kv)
        answers += generate(img, np.array([vocab.encode(s.question)]), image_kv)
    assert sum(batches, []) == answers
    per_type, _ = vqa_accuracy([("other", a, s.answer) for a, s in zip(answers, corpus)])
    want = dict(eval_stage(cfg, model, "base"), vqa_exact_match=per_type.get("other", 0.0))
    assert report == want


def test_eval_runs_each_fusion_block_over_the_image_rows_once_per_chunk(
        corpus_and_vocab, monkeypatch):
    # With VQA, the segmentation pass keeps each block's image keys and
    # values, and every decode step runs the blocks over the text rows alone.
    # Without VQA, as in compare's eval, the blocks run once per chunk and
    # keep nothing.
    cfg, _, vocab = corpus_and_vocab
    cfg = replace(cfg, eval_samples=20, fusion_layers=2)  # chunks of 16 and 4
    model = TaskModel(cfg, vocab, seed=0)  # decodes ANSWER_TOKENS per image
    fusion = {id(block) for block in model.neck.blocks}
    calls = []
    block_call = EncoderBlock.__call__

    def counting(block, x, allow=None, prefix_kv=None, keep_kv=None):
        if id(block) in fusion:
            calls.append((x.shape[:2], prefix_kv is not None, keep_kv is not None))
        return block_call(block, x, allow, prefix_kv, keep_kv)

    monkeypatch.setattr(EncoderBlock, "__call__", counting)
    n_image = (cfg.grid_size // cfg.patch_size) ** 2
    corpus = gen_single_shape_corpus(world_config(cfg), tuple(world_config(cfg).base_shapes),
                                     cfg.eval_samples, seed=11, prefix="base-eval")
    (n_question,) = {len(vocab.encode(s.question)) for s in corpus}

    eval_stage(cfg, model, "base")
    assert calls == [((rows, n_image), False, False) for rows in (16, 4) for _ in range(2)]

    calls.clear()
    eval_stage(cfg, model, "base", eval_vqa=True)
    want = []
    for rows in (16, 4):
        want += [((rows, n_image), False, True)] * 2
        for step in range(ANSWER_TOKENS):
            want += [((rows, n_question + step + 1), True, False)] * 2
    assert calls == want


# ---------------------------------------------------------------- streams

def test_run_stream_record(corpus_and_vocab):
    cfg, corpora, _ = corpus_and_vocab
    record = run_stream(cfg, 0, corpora)
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


def openblas_kernel(lib=None) -> str:
    """The kernel numpy's bundled OpenBLAS runs in this process (``SkylakeX``,
    ``Haswell``, ...), or ``unknown`` where it cannot be read. The loss bits
    of the pinned fingerprints depend on it."""
    try:
        if lib is None:
            [path] = (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")
            lib = ctypes.CDLL(str(path))
        corename = lib.scipy_openblas_get_corename64_
    except (OSError, ValueError, AttributeError):
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return (corename() or b"unknown").decode()


def test_openblas_kernel_is_named_or_unknown():
    name = openblas_kernel()
    assert isinstance(name, str) and name
    if np.__config__.CONFIG["Build Dependencies"]["blas"]["name"] == "scipy-openblas":
        assert name != "unknown"
    assert openblas_kernel(ctypes.CDLL(None)) == "unknown"  # no such symbol


def _fingerprint_cfg(mode):
    return tiny_cfg(pretrain_mode=mode, pretrain_steps=3, steps=4, eval_samples=4,
                    tasks=FOUR_TASKS)


def _losses_and_metrics(cfg) -> str:
    record = run_stream(cfg, 0, build_corpora(cfg))
    return json.dumps([record.losses, record.metrics], sort_keys=True)


@pytest.mark.parametrize("mode", sorted(BEHAVIOUR_FINGERPRINTS))
def test_behaviour_fingerprint_does_not_drift(mode):
    blob = _losses_and_metrics(_fingerprint_cfg(mode)).encode()
    assert hashlib.sha256(blob).hexdigest() == BEHAVIOUR_FINGERPRINTS[mode], \
        f"pinned on OpenBLAS kernel SkylakeX, run on {openblas_kernel()}"


def _widened(samples):
    """Copies of ``samples`` with each image widened to float64 and each mask
    to int64."""
    return [replace(s, image=None if s.image is None else s.image.astype(np.float64),
                    mask=None if s.mask is None else s.mask.astype(np.int64))
            for s in samples]


@pytest.mark.parametrize("mode", sorted(BEHAVIOUR_FINGERPRINTS))
def test_widening_the_corpora_first_changes_no_bit(monkeypatch, mode):
    """Corpora are stored narrow (float32 images, uint8 masks) and widened
    where a batch becomes a Tensor. Widening every training and eval corpus
    to float64/int64 before the run, which widens the augmented copies too,
    changes no byte of the losses and metrics: no stage computes on a
    narrow value."""
    cfg = _fingerprint_cfg(mode)
    narrow = _losses_and_metrics(cfg)
    paired = build_corpora(cfg)["paired"]
    assert pipeline._audit_content(_widened(paired)) == pipeline._audit_content(paired)

    generate, generate_eval = pipeline.gen_shapeworld, pipeline.gen_single_shape_corpus
    monkeypatch.setattr(pipeline, "gen_shapeworld", lambda world, names=CORPORA: {
        name: _widened(corpus) for name, corpus in generate(world, names).items()})
    monkeypatch.setattr(pipeline, "gen_single_shape_corpus",
                        lambda *args, **kw: _widened(generate_eval(*args, **kw)))
    assert build_corpora(cfg)["paired"][0].image.dtype == np.float64
    assert _losses_and_metrics(cfg) == narrow


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

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pool_sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
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
    """A worker's jobs share one read-only corpus per name and world config,
    generated by the first job that reads it."""
    monkeypatch.setattr(pipeline, "_corpora", {})
    made = _recording_generator(monkeypatch)
    pipeline._pool_job(tiny_cfg(pretrain_mode="pair-contrastive"), 0)
    assert made == ["paired"]
    pipeline._pool_job(tiny_cfg(pretrain_mode="masked-unimodal"), 1)
    assert made == ["paired", "image-only", "text-only"]
    [corpora] = pipeline._corpora.values()
    for name in ("paired", "image-only"):
        for arr in (corpora[name][0].image, corpora[name][0].mask):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 1
    pipeline._pool_job(tiny_cfg(data_seed=1, pretrain_mode="pair-contrastive"), 0)
    assert made == ["paired", "image-only", "text-only", "paired"]
    assert len(pipeline._corpora) == 2


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
    save_model(model, cfg, tmp_path / "ckpt", {"losses.json": "{}"})
    assert sorted(p.name for p in (tmp_path / "ckpt").iterdir()) == [
        "config.txt", "losses.json", "manifest.tsv", "params.ubtn"]
    assert (tmp_path / "ckpt" / "config.txt").read_text() == serialize_config(cfg)
    back = load_model(cfg, tmp_path / "ckpt")  # no seed: every entry comes from disk
    a = dict(model.named_parameters())
    b = dict(back.named_parameters())
    assert set(a) == set(b)
    for name in a:
        assert np.array_equal(a[name].values, b[name].values), name
    with pytest.raises(DataError, match="missing checkpoint"):
        load_model(cfg, tmp_path / "ghost")


@pytest.mark.parametrize("mode", ["masked-unimodal", "pair-contrastive", "supervised"])
def test_stage_chain_reproduces_run_stream(tmp_path, monkeypatch, mode):
    # pretrain -> finetune-multitask -> eval through checkpoints trains the
    # model that one run_stream trains, float for float
    monkeypatch.delenv("UNIBOOST_OUT", raising=False)
    cfg = tiny_cfg(pretrain_mode=mode, pretrain_steps=3, steps=4, eval_samples=4,
                   tasks=FOUR_TASKS)
    path = tmp_path / "stream.cfg"
    path.write_text(serialize_config(cfg))
    corpora = build_corpora(cfg)
    for seed in (0, 7):
        out = tmp_path / f"seed{seed}"
        for command in ("pretrain", "finetune-multitask", "eval"):
            assert main([command, "--config", str(path), "--seed", str(seed),
                         "--out", str(out)]) == 0, command
        record = run_stream(cfg, seed, corpora)
        pre = json.loads((out / f"pretrain-{mode}-seed{seed}" / "losses.json").read_text())
        fin = json.loads((out / f"model-{mode}-seed{seed}" / "losses.json").read_text())
        assert {f"pretrain/{k}": v for k, v in pre.items()} == {
            k: v for k, v in record.losses.items() if k.startswith("pretrain/")}
        assert {f"finetune/{k}": v for k, v in fin.items()} == {
            k: v for k, v in record.losses.items() if k.startswith("finetune/")}
        assert json.loads((out / "eval-novel.json").read_text()) == record.metrics["novel"]


def _perfbench_checks(monkeypatch):
    """perfbench/checks.py as it is: the output checks the benchmark applies."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    checks = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, checks)  # dataclasses look their module up
    spec.loader.exec_module(checks)
    return checks


def test_benchmark_output_checks_pass_on_a_tiny_chain_and_compare(tmp_path, monkeypatch):
    # a change to what the commands write that the benchmark would refuse
    # fails here, in the fast suite, first
    checks = _perfbench_checks(monkeypatch)
    monkeypatch.delenv("UNIBOOST_OUT", raising=False)
    paths, streams = [], []
    for mode in ("masked-unimodal", "pair-contrastive"):
        path = tmp_path / f"{mode}.cfg"
        path.write_text(serialize_config(tiny_cfg(pretrain_mode=mode, eval_samples=4,
                                                  tasks=FOUR_TASKS)))
        paths.append(path)
        streams.append(checks.StreamConfig.read(path))
    out = tmp_path / "chain"
    common = ["--config", str(paths[0]), "--seed", "7", "--out", str(out)]
    for command in (["pretrain"], ["finetune-multitask"], ["eval", "--split", "base", "--vqa"],
                    ["eval", "--split", "novel", "--vqa"]):
        assert main([*command, *common]) == 0, command
    results = [checks.check_pretrain(out, streams[0], 7),
               checks.check_finetune(out, streams[0], 7),
               *(checks.check_eval(out, streams[0], 7, split) for split in ("base", "novel"))]
    out = tmp_path / "compare"
    assert main(["compare", "--config", str(paths[0]), "--config", str(paths[1]),
                 "--seeds", "0", "--out", str(out)]) == 0
    results.append(checks.check_compare(out, streams, [0]))
    ops = [op for result in results for op in result.ops]
    assert [op.name for op in ops] == [
        "pretrain", "finetune-multitask", "eval-base", "eval-novel",
        "masked-unimodal:seed0", "pair-contrastive:seed0"]
    assert {op.name: op.reasons for op in ops if op.reasons} == {}
    assert all(op.fingerprint for op in ops)
