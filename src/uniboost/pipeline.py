"""Experiment orchestration: corpora assembly, the pretrain / finetune /
eval stages, stream comparison, and report emission.

Determinism contract: every number any stage emits is a pure function of
(config, seed). Randomness is drawn from generators seeded by stable
derivations of those two values, corpora are regenerated or ingested
bit-exactly, and reports are formatted from rounded decimals, so a rerun
produces byte-identical artifacts (wall time lives only in run records,
never in reports). It holds across workers: a ``compare_streams`` job's
result does not depend on the worker count, on which spawned worker ran
it, or on what that worker ran before.
"""

from __future__ import annotations

import csv
import ctypes
import io
import json
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import (ConfigError, ExperimentConfig, config_fingerprint,
                     diff_configs, serialize_config, world_config)
from .metrics import ConfusionCounts, fb_iou, fold_mean, round_half_up, vqa_accuracy
from .model import TaskModel
from .optim import AdamW
from .pretrain import PretrainMode, pretrain_run, train
from .scheduler import (DataQueue, RebalancePolicy, TaskDataset, apply_augmentation,
                        rebalance)
from .shapeworld import (SHAPES, CorpusTriple, Sample, build_vocabulary, class_id,
                         gen_shapeworld, gen_single_shape_corpus, ingest_manifest,
                         write_manifest)
from .tensorio import load_checkpoint, save_checkpoint

__all__ = ["LeakageError", "DataError", "RunRecord", "ComparisonRow",
           "ComparisonReport", "build_corpora", "pretrain_stage",
           "finetune_stage", "eval_stage", "run_stream", "compare_streams",
           "emit_comparison", "save_model", "load_model", "tune_allocator"]


class LeakageError(RuntimeError):
    """Novel evaluation content appeared in the training stream."""


class DataError(RuntimeError):
    """Missing or inconsistent data artifacts."""


@dataclass
class RunRecord:
    config_hash: str
    seed: int
    losses: dict[str, list[float]] = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    wall_time: float = 0.0

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True)


# The sample fields the stages read from each corpus.
_CORPUS_FIELDS = {"paired": ("image", "mask", "caption", "question", "answer"),
                  "image-only": ("image",),
                  "text-only": ("caption",)}


def build_corpora(cfg: ExperimentConfig) -> CorpusTriple:
    """Corpus triple from the config: generated, or ingested if a manifest
    path is configured. Each corpus must hold what the stages read of it,
    and its paired corpus, which every stage may train on, must pass the
    leakage audit."""
    if not cfg.manifest:
        triple = gen_shapeworld(world_config(cfg))
    else:
        tasks = ingest_manifest(cfg.manifest, expected_grid=cfg.grid_size)
        missing = {"paired", "image-only", "text-only"} - set(tasks)
        if missing:
            raise DataError(f"manifest lacks corpora {sorted(missing)}")
        triple = CorpusTriple(paired=tasks["paired"], image_only=tasks["image-only"],
                              text_only=tasks["text-only"])
    _check_corpora(triple)
    audit_leakage(cfg.novel_shapes, *_audit_content(triple.paired))
    return triple


def _check_corpora(triple: CorpusTriple) -> None:
    """Every sample has the fields the stages read, each text field has one
    token count across its corpus (batches stack them), and each paired
    caption's second word is the shape that supervised pretraining and the
    cls head take as its label."""
    for name, fields in _CORPUS_FIELDS.items():
        n_tokens: dict[str, int] = {}
        for s in getattr(triple, name.replace("-", "_")):
            where = f"corpus {name!r} sample {s.sample_id!r}"
            for f in fields:
                value = getattr(s, f)
                n = len(value.split()) if isinstance(value, str) else None
                if value is None or n == 0:
                    raise DataError(f"{where}: no {f}")
                if n is not None and n_tokens.setdefault(f, n) != n:
                    raise DataError(f"{where}: {f} has {n} tokens, the corpus's first "
                                    f"has {n_tokens[f]}")
            words = s.caption.split()
            if name == "paired" and (len(words) < 2 or words[1] not in SHAPES):
                raise DataError(f"{where}: caption {s.caption!r} does not name a shape "
                                f"as its second word")


def _label_of(sample: Sample) -> int:
    shape = sample.caption.split()[1]
    return SHAPES.index(shape)


def _stack_images(samples: list[Sample]) -> np.ndarray:
    return np.stack([s.image for s in samples])


def pretrain_stage(cfg: ExperimentConfig, seed: int, triple: CorpusTriple,
                   model: TaskModel) -> dict[str, list[float]]:
    """Pretrain ``model``'s encoders in place; return the loss traces."""
    mode = PretrainMode(cfg.pretrain_mode)
    if mode is PretrainMode.MASKED_UNIMODAL:
        images, texts = triple.image_only, triple.text_only
    else:
        images = texts = triple.paired
    if mode is PretrainMode.SUPERVISED:
        targets = np.array([_label_of(s) for s in texts])
    else:
        targets = np.array([model.vocab.encode(s.caption) for s in texts])
    return pretrain_run(mode, _stack_images(images), targets, model.image_encoder,
                        model.text_encoder, steps=cfg.pretrain_steps, seed=seed,
                        batch_size=cfg.pretrain_batch_size, peak_lr=cfg.pretrain_peak_lr)


def _materialize(store: dict[str, Sample], plan) -> None:
    for did, spec in plan.items():
        src = store[spec.source_id]
        image = apply_augmentation(src.image, spec) if src.image is not None else None
        mask = apply_augmentation(src.mask, spec) if src.mask is not None else None
        store[did] = Sample(did, image, mask, src.caption, src.question, src.answer)


def _task_rng_seed(seed: int, task_id: str) -> int:
    out = seed
    for ch in task_id:
        out = (out * 1000003 + ord(ch)) % (2 ** 31)
    return out


@dataclass
class FinetuneResult:
    losses: dict[str, list[float]]
    trace: list[str]
    training_tokens: set[str]
    training_labels: set[int]


def finetune_stage(cfg: ExperimentConfig, seed: int, triple: CorpusTriple,
                   model: TaskModel) -> FinetuneResult:
    """Multitask intermediate fine-tuning over the configured task roster."""
    if not cfg.tasks:
        raise ConfigError("no [task <id>] sections configured")
    vocab = model.vocab
    store: dict[str, Sample] = {s.sample_id: s for s in triple.paired}
    base_names = [s for s in SHAPES if s not in cfg.novel_shapes]
    seg_classes = ["background"] + base_names

    datasets = []
    policy = RebalancePolicy(threshold=cfg.rebalance_threshold)
    # The tasks' plans share their derived ids; the last task's spec for an
    # id wins, and each derived sample is augmented once.
    merged_plan = {}
    for spec in cfg.tasks:
        ds = TaskDataset(spec.task_id, spec.route,
                         tuple(s.sample_id for s in triple.paired),
                         spec.batch_size, _task_rng_seed(seed, spec.task_id))
        ds, plan = rebalance(ds, policy)
        merged_plan.update(plan)
        datasets.append(ds)
    _materialize(store, merged_plan)

    queue = DataQueue(datasets, seed=_task_rng_seed(seed, "queue"))
    head_by_task = {spec.task_id: spec.head for spec in cfg.tasks}

    groups = {"rest": (model.head_parameters(), 1.0)}
    if cfg.freeze_encoders:
        for p in model.encoder_parameters():
            p.requires_grad = False
    else:
        groups["encoders"] = (model.encoder_parameters(), cfg.encoder_lr_ratio)
    opt = AdamW(groups, peak_lr=cfg.peak_lr, weight_decay=cfg.weight_decay,
                total_steps=max(cfg.steps, 1),
                warmup_steps=min(cfg.warmup_steps, max(cfg.steps, 1) // 5),
                schedule=cfg.schedule)

    trained_ids: set[str] = set()

    def task_loss(step):
        batch = queue.next_batch()
        trained_ids.update(batch.sample_ids)
        samples = [store[sid] for sid in batch.sample_ids]
        head = head_by_task[batch.task_id]
        images = _stack_images(samples)
        if head == "seg":
            loss = model.seg_loss(images, np.stack([s.mask for s in samples]), seg_classes)
        elif head == "cls":
            loss = model.cls_loss(images, np.array([_label_of(s) for s in samples]))
        elif head == "caption":
            ids = np.array([vocab.encode(s.caption) + [vocab.eos_id] for s in samples])
            loss = model.caption_loss(images, ids, seed=_task_rng_seed(seed, f"cap{step}"))
        elif head == "vqa":
            prefix = len(vocab.encode(samples[0].question))
            ids = np.array([vocab.encode(s.question) + vocab.encode(s.answer)
                            + [vocab.eos_id] for s in samples])
            loss = model.vqa_loss(images, ids, prefix, seed=_task_rng_seed(seed, f"vqa{step}"))
        else:
            raise ConfigError(f"task {batch.task_id}: unsupported head {head!r}")
        return batch.task_id, loss

    losses: dict[str, list[float]] = {spec.task_id: [] for spec in cfg.tasks}
    train([(task_loss, opt)], cfg.steps, losses)

    tokens, labels = _audit_content(store[sid] for sid in trained_ids)
    return FinetuneResult(losses, list(queue.trace), tokens, labels)


def _audit_content(samples) -> tuple[set[str], set[int]]:
    """The text tokens and mask labels of ``samples``."""
    tokens: set[str] = set()
    labels: set[int] = set()
    for s in samples:
        for text in (s.caption, s.question, s.answer):
            tokens.update(text.split())
        if s.mask is not None:
            labels.update(int(v) for v in np.unique(s.mask))
    return tokens, labels


def audit_leakage(novel_shapes, training_tokens: set[str],
                  training_labels: set[int]) -> None:
    leaked_tokens = set(novel_shapes) & training_tokens
    leaked_labels = {s for s in novel_shapes if class_id(s) in training_labels}
    leaked = sorted(leaked_tokens | leaked_labels)
    if leaked:
        raise LeakageError(
            f"novel classes {leaked} appeared in the training stream")


def eval_stage(cfg: ExperimentConfig, model: TaskModel, split: str,
               training_tokens: set[str] | None = None,
               training_labels: set[int] | None = None,
               eval_vqa: bool = False) -> dict:
    """Segmentation metrics (and optionally VQA accuracy) on one split.

    The novel split is scored only after the leakage audit passes, so it
    needs both ``training_tokens`` and ``training_labels``.
    """
    if split not in ("base", "novel"):
        raise ConfigError(f"unknown split {split!r}")
    world = world_config(cfg)
    if split == "novel":
        classes = list(cfg.novel_shapes)
        if training_tokens is None or training_labels is None:
            raise LeakageError("novel eval needs the training tokens and labels to audit")
        audit_leakage(classes, training_tokens, training_labels)
    else:
        classes = [s for s in SHAPES if s not in cfg.novel_shapes]
    if not classes:
        raise DataError(f"split {split!r} has no classes")
    corpus = gen_single_shape_corpus(world, tuple(classes), cfg.eval_samples,
                                     seed=11 if split == "base" else 13,
                                     prefix=f"{split}-eval")
    class_names = ["background"] + classes
    ids = [class_id(c) for c in classes]
    counts = ConfusionCounts((0, *ids))
    prompts = model.class_prompts(class_names)
    answers: list[str] = []
    chunk = 16
    for i in range(0, len(corpus), chunk):
        part = corpus[i:i + chunk]
        img = model.image_seq(_stack_images(part))  # shared by both heads
        pred = model.seg_predict(img, prompts, class_names)
        counts.accumulate(pred, np.stack([s.mask for s in part]))
        if eval_vqa:
            questions = np.array([model.vocab.encode(s.question) for s in part])
            answers += model.generate_answer(img, questions)
    report = {
        "split": split,
        "classes": classes,
        "miou": float(counts.miou(ids)),
        "fb_iou": float(fb_iou(counts, ids)),
        "pix_acc": float(counts.pix_acc()),
        "per_class_iou": {str(k): float(v) for k, v in counts.per_class_iou().items()},
        "samples": len(corpus),
    }
    if eval_vqa:
        records = [("other", answer, s.answer) for answer, s in zip(answers, corpus)]
        per_type, mean = vqa_accuracy(records)
        report["vqa_exact_match"] = per_type.get("other", 0.0)
    return report


def run_stream(cfg: ExperimentConfig, seed: int, triple: CorpusTriple) -> RunRecord:
    """Pretrain, finetune and novel eval for one (config, seed) on its corpora."""
    start = time.perf_counter()
    model = TaskModel(cfg, build_vocabulary(), seed)
    pre_losses = pretrain_stage(cfg, seed, triple, model)
    fin = finetune_stage(cfg, seed, triple, model)
    novel = eval_stage(cfg, model, "novel", fin.training_tokens, fin.training_labels)
    record = RunRecord(config_hash=config_fingerprint(cfg), seed=seed)
    record.losses = {f"pretrain/{k}": v for k, v in pre_losses.items()}
    record.losses.update({f"finetune/{k}": v for k, v in fin.losses.items()})
    record.metrics = {"novel": novel}
    record.wall_time = time.perf_counter() - start
    return record


@dataclass
class ComparisonRow:
    stream: str
    seed: int
    fold_scores: dict[str, float]    # printed units (x100, 1 decimal)
    mean: float
    fb: float


@dataclass
class ComparisonReport:
    fold_labels: list[str]
    rows: list[ComparisonRow]
    win_counts: dict[str, int]
    stream_means: dict[str, float]   # raw [0, 1] novel mIoU averaged over seeds


def tune_allocator() -> None:
    """Stop glibc trimming the heap top that each training step frees with
    its tape graph and the next step faults back in. A no-op without glibc;
    it sets only this process's allocator."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-2, 512 << 20)  # M_TOP_PAD


# A pool worker's corpus triples, keyed on everything build_corpora reads.
_corpora: dict[tuple, CorpusTriple] = {}


def _pool_job(cfg: ExperimentConfig, seed: int) -> RunRecord:
    """``run_stream`` on this worker's ``build_corpora(cfg)``, built once and
    read-only, so a job writing into it raises instead of changing the next."""
    key = (cfg.manifest, world_config(cfg))
    if key not in _corpora:
        triple = build_corpora(cfg)
        for s in (*triple.paired, *triple.image_only, *triple.text_only):
            for arr in (s.image, s.mask):
                if arr is not None:
                    arr.flags.writeable = False
        _corpora[key] = triple
    return run_stream(cfg, seed, _corpora[key])


def compare_streams(configs: dict[str, ExperimentConfig],
                    seeds: list[int]) -> ComparisonReport:
    """Run every stream at every seed and assemble the comparison table.

    Configs must be identical except for the pretraining mode; anything
    else varying would confound the comparison and is rejected. The jobs
    run on one spawned worker per usable CPU; the table does not depend on
    the worker count, and a job's exception is raised with its own type.
    """
    if len(configs) < 2:
        raise ConfigError("compare needs at least two streams")
    if not seeds:
        raise ConfigError("compare needs at least one seed")
    if len(set(seeds)) != len(seeds) or min(seeds) < 0:
        raise ConfigError(f"compare seeds {seeds} must be distinct and non-negative")
    items = sorted(configs.items())
    first_name, first_cfg = items[0]
    for name, other in items[1:]:
        diffs = diff_configs(first_cfg, other, ignore=("pretrain_mode",))
        if diffs:
            raise ConfigError(
                f"stream {name!r} differs from {first_name!r} in non-pretrain "
                f"fields: {diffs}")
    main_file = getattr(sys.modules["__main__"], "__file__", None)
    if main_file is not None and not os.path.isfile(main_file):
        raise RuntimeError(
            f"compare_streams starts spawned workers, which import the main module "
            f"again, and the main module {main_file!r} is not a file (a script piped "
            f"to `python -`?): save the script to a file, put its entry point under "
            f"`if __name__ == \"__main__\":` and run the file")
    fold_label = "novel"
    rows: list[ComparisonRow] = []
    raw: dict[str, dict[int, float]] = {name: {} for name, _ in items}
    jobs = [(name, cfg, seed) for name, cfg in items for seed in seeds]
    pool = ProcessPoolExecutor(min(len(jobs), len(os.sched_getaffinity(0))),
                               mp_context=multiprocessing.get_context("spawn"),
                               initializer=tune_allocator)
    blas = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # each worker's numpy reads it at import
    try:
        futures = [pool.submit(_pool_job, cfg, seed) for _, cfg, seed in jobs]
        records = [f.result() for f in futures]
    finally:
        pool.shutdown(cancel_futures=True)
        os.environ.pop("OPENBLAS_NUM_THREADS", None)
        if blas is not None:
            os.environ["OPENBLAS_NUM_THREADS"] = blas
    for (name, _, seed), record in zip(jobs, records):
        miou = record.metrics["novel"]["miou"]
        fb = record.metrics["novel"]["fb_iou"]
        raw[name][seed] = miou
        printed = {fold_label: round_half_up(100 * miou, 1)}
        rows.append(ComparisonRow(name, seed, printed,
                                  fold_mean(printed.values()),
                                  round_half_up(100 * fb, 1)))
    win_counts = {name: 0 for name, _ in items}
    for seed in seeds:
        by_stream = {name: raw[name][seed] for name, _ in items}
        best = max(by_stream.values())
        winners = [n for n, v in by_stream.items() if v == best]
        if len(winners) == 1:
            win_counts[winners[0]] += 1
    stream_means = {name: float(np.mean(list(raw[name].values()))) for name, _ in items}
    return ComparisonReport([fold_label], rows, win_counts, stream_means)


def comparison_csv(report: ComparisonReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["row-type", "stream", "seed", *report.fold_labels, "mean", "fb-iou"])
    for row in report.rows:
        writer.writerow(["result", row.stream, row.seed,
                         *[f"{row.fold_scores[f]:.1f}" for f in report.fold_labels],
                         f"{row.mean:.1f}", f"{row.fb:.1f}"])
    for stream in sorted(report.win_counts):
        writer.writerow(["wins", stream, "", *[""] * len(report.fold_labels),
                         str(report.win_counts[stream]), ""])
    return buf.getvalue()


def comparison_text(report: ComparisonReport) -> str:
    header = ["stream", "seed", *report.fold_labels, "mean", "fb-iou"]
    body = [[row.stream, str(row.seed),
             *[f"{row.fold_scores[f]:.1f}" for f in report.fold_labels],
             f"{row.mean:.1f}", f"{row.fb:.1f}"] for row in report.rows]
    widths = [max(len(h), *(len(r[i]) for r in body)) if body else len(h)
              for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for r in body:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    lines.append("")
    for stream in sorted(report.win_counts):
        lines.append(f"wins[{stream}] = {report.win_counts[stream]}")
    return "\n".join(lines) + "\n"


def emit_comparison(report: ComparisonReport, out_dir: str | Path) -> tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "comparison.csv"
    txt_path = out / "comparison.txt"
    csv_path.write_text(comparison_csv(report))
    txt_path.write_text(comparison_text(report))
    return csv_path, txt_path


# ---------------------------------------------------------------------------
# checkpoint plumbing shared by the CLI


def save_model(model: TaskModel, cfg: ExperimentConfig, directory: str | Path) -> None:
    save_checkpoint(directory, model.state_dict(), config_text=serialize_config(cfg))


def _load_state(module, state: dict[str, np.ndarray], directory: Path) -> None:
    try:
        module.load_state_dict(state)
    except (KeyError, ValueError) as exc:
        raise DataError(f"checkpoint at {directory} does not fit the config: {exc}") from exc


def load_model(cfg: ExperimentConfig, directory: str | Path, seed: int) -> TaskModel:
    d = Path(directory)
    if not (d / "manifest.tsv").exists():
        raise DataError(f"missing checkpoint at {d}")
    vocab = build_vocabulary()
    model = TaskModel(cfg, vocab, seed)
    _load_state(model, load_checkpoint(d), d)
    return model


def save_encoders(model: TaskModel, cfg: ExperimentConfig, directory: str | Path) -> None:
    """Write the model's encoder entries, under their names in the model."""
    state = {p.name: p.values for p in model.encoder_parameters()}
    save_checkpoint(directory, state, config_text=serialize_config(cfg))


def load_encoders(cfg: ExperimentConfig, directory: str | Path, seed: int) -> TaskModel:
    """A fresh ``TaskModel`` whose encoders hold the saved entries."""
    d = Path(directory)
    if not (d / "manifest.tsv").exists():
        raise DataError(f"missing encoder checkpoint at {d}")
    model = TaskModel(cfg, build_vocabulary(), seed)
    # the neck and heads keep their fresh values; every encoder entry must come from disk
    heads = {p.name: p.values for p in model.head_parameters()}
    _load_state(model, {**heads, **load_checkpoint(d)}, d)
    return model


def write_corpora_manifest(cfg: ExperimentConfig, directory: str | Path) -> Path:
    triple = build_corpora(cfg)
    return write_manifest(directory, {"paired": triple.paired,
                                      "image-only": triple.image_only,
                                      "text-only": triple.text_only})
