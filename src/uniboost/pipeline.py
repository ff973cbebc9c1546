"""Experiment orchestration: corpora assembly, the pretrain / finetune /
eval stages, stream comparison, and report emission.

The corpora are a {corpus name: samples} mapping of the ``paired``,
``image-only`` and ``text-only`` corpora, each generated on its first read,
so a stage builds only the corpora it reads.

Determinism contract: every number any stage emits is a pure function of
(config, seed). Randomness is drawn from generators seeded by stable
derivations of those two values, corpora are regenerated bit-exactly, and
reports are formatted from rounded decimals, so a rerun produces
byte-identical artifacts (wall time lives only in run records, never in
reports). It holds across workers: a ``compare_streams`` job's
result does not depend on the worker count, on which spawned worker ran
it, or on what that worker ran before.
"""

from __future__ import annotations

import csv
import ctypes
import io
import json
import os
import sys
import time
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .config import (ConfigError, ExperimentConfig, config_fingerprint,
                     diff_configs, parse_config, serialize_config, world_config)
from .metrics import ConfusionCounts, fb_iou, fold_mean, round_half_up, vqa_accuracy
from .model import TaskModel
from .optim import AdamW
from .pretrain import PretrainMode, pretrain_run, train
from .scheduler import (DataQueue, RebalancePolicy, TaskDataset, apply_augmentation,
                        rebalance)
from .shapeworld import (CORPORA, SHAPES, Sample, ShapeWorldConfig, build_vocabulary,
                         class_id, gen_shapeworld, gen_single_shape_corpus)
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


class _Corpora(Mapping):
    """One world's corpora by name, each generated on its first read and kept.
    The paired corpus, which every stage may train on, passes the leakage
    audit before any read of it returns."""

    def __init__(self, world: ShapeWorldConfig):
        self.world, self._built = world, {}

    def __getitem__(self, name: str) -> list[Sample]:
        if name not in self._built:
            corpus = gen_shapeworld(self.world, (name,))[name]
            if name == "paired":
                audit_leakage(self.world.novel_shapes, *_audit_content(corpus))
            self._built[name] = corpus
        return self._built[name]

    def __iter__(self):
        return iter(CORPORA)

    def __len__(self) -> int:
        return len(CORPORA)


def build_corpora(cfg: ExperimentConfig) -> Mapping[str, list[Sample]]:
    """The config's corpora, generated as they are read."""
    return _Corpora(world_config(cfg))


def _label_of(sample: Sample) -> int:
    shape = sample.caption.split()[1]
    return SHAPES.index(shape)


def _stack_images(samples: list[Sample]) -> np.ndarray:
    return np.stack([s.image for s in samples])


def pretrain_stage(cfg: ExperimentConfig, seed: int, corpora: Mapping[str, list[Sample]],
                   model: TaskModel) -> dict[str, list[float]]:
    """Pretrain ``model``'s encoders in place; return the loss traces."""
    mode = PretrainMode(cfg.pretrain_mode)
    if mode is PretrainMode.MASKED_UNIMODAL:
        images, texts = corpora["image-only"], corpora["text-only"]
    else:
        images = texts = corpora["paired"]
    if mode is PretrainMode.SUPERVISED:
        targets = np.array([_label_of(s) for s in texts])
    else:
        targets = np.array([model.vocab.encode(s.caption) for s in texts])
    return pretrain_run(mode, [s.image for s in images], targets, model.image_encoder,
                        model.text_encoder, steps=cfg.pretrain_steps, seed=seed,
                        batch_size=cfg.pretrain_batch_size, peak_lr=cfg.pretrain_peak_lr)


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


# Fine-tuning updates the encoders at this fraction of the heads' LR.
ENCODER_LR_RATIO = 0.1


def finetune_stage(cfg: ExperimentConfig, seed: int, corpora: Mapping[str, list[Sample]],
                   model: TaskModel) -> FinetuneResult:
    """Multitask intermediate fine-tuning over the configured task roster."""
    if not cfg.tasks:
        raise ConfigError("no [task <id>] sections configured")
    vocab = model.vocab
    store: dict[str, Sample] = {s.sample_id: s for s in corpora["paired"]}
    seg_classes = ["background", *world_config(cfg).base_shapes]

    # Every task draws from one augmented pool, planned under the last task's
    # seed, and each task shuffles it under its own; a derived sample is
    # augmented once, when a batch first draws it.
    last = cfg.tasks[-1]
    pool, plan = rebalance(TaskDataset(last.task_id, last.route, tuple(store),
                                       last.batch_size, _task_rng_seed(seed, last.task_id)),
                           RebalancePolicy(threshold=cfg.rebalance_threshold))
    datasets = [TaskDataset(spec.task_id, spec.route, pool.sample_ids, spec.batch_size,
                            _task_rng_seed(seed, spec.task_id)) for spec in cfg.tasks]

    def sample(sid: str) -> Sample:
        if sid not in store:
            aug = plan[sid]
            src = store[aug.source_id]
            store[sid] = Sample(sid, apply_augmentation(src.image, aug),
                                apply_augmentation(src.mask, aug),
                                src.caption, src.question, src.answer)
        return store[sid]

    queue = DataQueue(datasets, seed=_task_rng_seed(seed, "queue"))
    head_by_task = {spec.task_id: spec.head for spec in cfg.tasks}

    named = dict(model.named_parameters())
    encoders = {name: p for name, p in named.items()
                if name.startswith(("image_encoder.", "text_encoder."))}
    rest = {name: p for name, p in named.items() if name not in encoders}
    opt = AdamW({"rest": (rest, 1.0), "encoders": (encoders, ENCODER_LR_RATIO)},
                peak_lr=cfg.peak_lr, total_steps=max(cfg.steps, 1),
                warmup_steps=min(cfg.warmup_steps, max(cfg.steps, 1) // 5))

    trained_ids: set[str] = set()

    def task_loss(step):
        batch = queue.next_batch()
        trained_ids.update(batch.sample_ids)
        samples = [sample(sid) for sid in batch.sample_ids]
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
            labels.update(np.flatnonzero(np.bincount(s.mask.ravel())).tolist())
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
        classes = list(world.base_shapes)
    if not classes:
        raise DataError(f"split {split!r} has no classes")
    corpus = gen_single_shape_corpus(world, tuple(classes), cfg.eval_samples,
                                     seed=11 if split == "base" else 13,
                                     prefix=f"{split}-eval")
    class_names = ["background"] + classes
    ids = [class_id(c) for c in classes]
    counts = ConfusionCounts([class_id(c) for c in class_names])
    prompts = model.class_prompts(class_names)
    answers: list[str] = []
    chunk = 16
    for i in range(0, len(corpus), chunk):
        part = corpus[i:i + chunk]
        img = model.image_seq(_stack_images(part))  # shared by both heads
        # the fusion blocks run over the image rows once; decoding reuses
        # their keys and values
        image_kv = [] if eval_vqa else None
        pred = model.seg_predict(img, prompts, class_names, image_kv)
        counts.accumulate(pred, np.stack([s.mask for s in part]))
        if eval_vqa:
            questions = np.array([model.vocab.encode(s.question) for s in part])
            answers += model.generate_answer(img, questions, image_kv)
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
        per_type, _ = vqa_accuracy(records)
        report["vqa_exact_match"] = per_type.get("other", 0.0)
    return report


def run_stream(cfg: ExperimentConfig, seed: int,
               corpora: Mapping[str, list[Sample]]) -> RunRecord:
    """Pretrain, finetune and novel eval for one (config, seed) on its corpora."""
    start = time.perf_counter()
    model = TaskModel(cfg, build_vocabulary(), seed)
    pre_losses = pretrain_stage(cfg, seed, corpora, model)
    fin = finetune_stage(cfg, seed, corpora, model)
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


# A pool worker's corpora, keyed on everything build_corpora reads.
_corpora: dict[ShapeWorldConfig, Mapping[str, list[Sample]]] = {}


def _pool_job(cfg: ExperimentConfig, seed: int) -> RunRecord:
    """``run_stream`` on this worker's ``build_corpora(cfg)``, kept for its
    later jobs: each corpus is generated once, by the first job that reads
    it, and its arrays are read-only, so a job writing into them raises
    instead of changing the next."""
    key = world_config(cfg)
    if key not in _corpora:
        _corpora[key] = build_corpora(cfg)
    return run_stream(cfg, seed, _corpora[key])


def check_comparison(configs: dict[str, ExperimentConfig], seeds: list[int]) -> None:
    """Refuse a comparison of fewer than two streams, of no seeds or of
    repeated or negative ones, of streams whose configs differ in more than
    the pretraining mode, which would confound the comparison, or of streams
    with no task to fine-tune on or no novel shape to score."""
    if len(configs) < 2:
        raise ConfigError("compare needs at least two streams")
    if not seeds:
        raise ConfigError("compare needs at least one seed")
    if len(set(seeds)) != len(seeds) or min(seeds) < 0:
        raise ConfigError(f"compare seeds {seeds} must be distinct and non-negative")
    (first_name, first_cfg), *rest = sorted(configs.items())
    for name, other in rest:
        diffs = diff_configs(first_cfg, other, ignore=("pretrain_mode",))
        if diffs:
            raise ConfigError(
                f"stream {name!r} differs from {first_name!r} in non-pretrain "
                f"fields: {diffs}")
    if not first_cfg.tasks:
        raise ConfigError("no [task <id>] sections configured")
    if not first_cfg.novel_shapes:
        raise ConfigError("compare scores the novel split, and novel_shapes is empty")


def compare_streams(configs: dict[str, ExperimentConfig],
                    seeds: list[int]) -> ComparisonReport:
    """Run every stream at every seed and assemble the comparison table.

    The configs and seeds must pass ``check_comparison``. The jobs run on
    one spawned worker per usable CPU; the table does not depend on the
    worker count, and a job's exception is raised with its own type.
    """
    # Loaded here, not at import: no other command starts a process pool.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    check_comparison(configs, seeds)
    items = sorted(configs.items())
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


def _comparison_cells(report: ComparisonReport) -> list[list[str]]:
    """The header, then one row per result: the cells both tables print."""
    return [["stream", "seed", *report.fold_labels, "mean", "fb-iou"],
            *([row.stream, str(row.seed),
               *[f"{row.fold_scores[f]:.1f}" for f in report.fold_labels],
               f"{row.mean:.1f}", f"{row.fb:.1f}"] for row in report.rows)]


def comparison_csv(report: ComparisonReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header, *body = _comparison_cells(report)
    writer.writerow(["row-type", *header])
    writer.writerows(["result", *cells] for cells in body)
    for stream in sorted(report.win_counts):
        writer.writerow(["wins", stream, "", *[""] * len(report.fold_labels),
                         str(report.win_counts[stream]), ""])
    return buf.getvalue()


def comparison_text(report: ComparisonReport) -> str:
    cells = _comparison_cells(report)
    widths = [max(map(len, column)) for column in zip(*cells)]
    rows = ["  ".join(v.ljust(w) for v, w in zip(r, widths)) for r in cells]
    lines = [rows[0], "  ".join("-" * w for w in widths), *rows[1:], ""]
    for stream in sorted(report.win_counts):
        lines.append(f"wins[{stream}] = {report.win_counts[stream]}")
    return "\n".join(lines) + "\n"


def emit_comparison(report: ComparisonReport, out_dir: str | Path) -> tuple[Path, Path]:
    """Write ``comparison.csv``, ``comparison.txt`` and the full report as
    ``comparison.json``; return the table paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "comparison.csv"
    txt_path = out / "comparison.txt"
    csv_path.write_text(comparison_csv(report))
    txt_path.write_text(comparison_text(report))
    (out / "comparison.json").write_text(json.dumps(asdict(report), indent=2, sort_keys=True))
    return csv_path, txt_path


# ---------------------------------------------------------------------------
# checkpoint plumbing shared by the CLI


def save_model(model: TaskModel, cfg: ExperimentConfig, directory: str | Path,
               files: dict[str, str]) -> None:
    """Save ``model`` with ``config.txt`` and the command's ``files``."""
    save_checkpoint(directory, model.state_dict(), {"config.txt": serialize_config(cfg), **files})


def load_model(cfg: ExperimentConfig, directory: str | Path) -> TaskModel:
    """The model saved at ``directory``, refused unless its ``config.txt``
    is ``cfg``'s serialization."""
    d = Path(directory)
    if not (d / "manifest.tsv").exists():
        raise DataError(f"missing checkpoint at {d}")
    saved_at = d / "config.txt"
    if not saved_at.is_file():
        raise DataError(f"checkpoint at {d} has no config.txt")
    try:
        saved = saved_at.read_text(encoding="utf-8")
        if saved != serialize_config(cfg):
            fields = diff_configs(parse_config(saved), cfg) or "its text alone"
            raise DataError(f"checkpoint at {d} was saved under another config; it "
                            f"differs in {fields}")
    except (UnicodeDecodeError, ConfigError) as exc:
        raise DataError(f"{saved_at} is not a config: {exc}") from None
    state = load_checkpoint(d)
    model = TaskModel(cfg, build_vocabulary(), 0)  # every entry comes from disk
    try:
        model.load_state_dict(state)
    except (KeyError, ValueError) as exc:
        raise DataError(f"checkpoint at {d} does not fit the config: {exc}") from exc
    return model
