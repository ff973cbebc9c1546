"""Experiment orchestration: corpora assembly, the pretrain / finetune /
eval stages, stream comparison, and report emission.

Determinism contract: every number any stage emits is a pure function of
(config, seed). Randomness is drawn from generators seeded by stable
derivations of those two values, corpora are regenerated or ingested
bit-exactly, and reports are formatted from rounded decimals, so a rerun
produces byte-identical artifacts (wall time lives only in run records,
never in reports).
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import (ConfigError, ExperimentConfig, config_fingerprint,
                     diff_configs, serialize_config)
from .encoders import Vocabulary
from .metrics import ConfusionCounts, fb_iou, fold_mean, round_half_up, vqa_accuracy
from .model import TaskModel
from .optim import AdamW
from .pretrain import PretrainMode, PretrainResult, pretrain_run, train
from .scheduler import (DataQueue, RebalancePolicy, TaskDataset, apply_augmentation,
                        rebalance)
from .shapeworld import (SHAPES, CorpusTriple, Sample, ShapeWorldConfig,
                         build_vocabulary, class_id, gen_shapeworld,
                         gen_single_shape_corpus, ingest_manifest, write_manifest)
from .tensorio import load_checkpoint, save_checkpoint

__all__ = ["LeakageError", "DataError", "RunRecord", "ComparisonRow",
           "ComparisonReport", "world_config", "build_corpora", "pretrain_stage",
           "finetune_stage", "eval_stage", "run_stream", "compare_streams",
           "emit_comparison", "save_model", "load_model"]


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


def world_config(cfg: ExperimentConfig) -> ShapeWorldConfig:
    return ShapeWorldConfig(grid_size=cfg.grid_size,
                            samples_per_corpus=cfg.samples_per_corpus,
                            paired_fraction=cfg.paired_fraction,
                            novel_shapes=tuple(cfg.novel_shapes),
                            family_affinity=cfg.family_affinity,
                            color_affinity=cfg.color_affinity,
                            seed=cfg.data_seed)


def build_corpora(cfg: ExperimentConfig) -> CorpusTriple:
    """Corpus triple from the config: generated, or ingested if a manifest
    path is configured."""
    if not cfg.manifest:
        return gen_shapeworld(world_config(cfg))
    tasks = ingest_manifest(cfg.manifest, expected_grid=cfg.grid_size)
    missing = {"paired", "image-only", "text-only"} - set(tasks)
    if missing:
        raise DataError(f"manifest lacks corpora {sorted(missing)}")
    return CorpusTriple(paired=tasks["paired"], image_only=tasks["image-only"],
                        text_only=tasks["text-only"])


def _label_of(sample: Sample) -> int:
    shape = sample.caption.split()[1]
    return SHAPES.index(shape)


def _stack_images(samples: list[Sample]) -> np.ndarray:
    return np.stack([s.image for s in samples])


def pretrain_stage(cfg: ExperimentConfig, seed: int,
                   triple: CorpusTriple, vocab: Vocabulary) -> PretrainResult:
    from .model import encoder_config
    mode = PretrainMode(cfg.pretrain_mode)
    if mode is PretrainMode.SUPERVISED:
        corpora = {"images": _stack_images(triple.paired),
                   "labels": np.array([_label_of(s) for s in triple.paired]),
                   "n_classes": len(SHAPES)}
    elif mode is PretrainMode.PAIR_CONTRASTIVE:
        corpora = {"images": _stack_images(triple.paired),
                   "token_ids": np.array([vocab.encode(s.caption) for s in triple.paired])}
    else:
        corpora = {"images": _stack_images(triple.image_only),
                   "token_ids": np.array([vocab.encode(s.caption) for s in triple.text_only])}
    return pretrain_run(mode, corpora, encoder_config(cfg), steps=cfg.pretrain_steps,
                        seed=seed, batch_size=cfg.pretrain_batch_size,
                        peak_lr=cfg.pretrain_peak_lr)


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
    model: TaskModel
    losses: dict[str, list[float]]
    trace: list[str]
    store: dict[str, Sample]
    training_tokens: set[str]
    training_labels: set[int]


def finetune_stage(cfg: ExperimentConfig, seed: int, triple: CorpusTriple,
                   vocab: Vocabulary, model: TaskModel) -> FinetuneResult:
    """Multitask intermediate fine-tuning over the configured task roster."""
    if not cfg.tasks:
        raise ConfigError("no [task <id>] sections configured")
    store: dict[str, Sample] = {s.sample_id: s for s in triple.paired}
    base_names = [s for s in SHAPES if s not in cfg.novel_shapes]
    seg_classes = ["background"] + base_names

    datasets = []
    policy = RebalancePolicy(threshold=cfg.rebalance_threshold)
    for spec in cfg.tasks:
        ds = TaskDataset(spec.task_id, spec.route,
                         tuple(s.sample_id for s in triple.paired),
                         spec.batch_size, _task_rng_seed(seed, spec.task_id))
        ds, plan = rebalance(ds, policy)
        _materialize(store, plan)
        datasets.append(ds)

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

    tokens: set[str] = set()
    labels: set[int] = set()
    for sid in trained_ids:
        s = store[sid]
        for text in (s.caption, s.question, s.answer):
            tokens.update(text.split())
        if s.mask is not None:
            labels.update(int(v) for v in np.unique(s.mask))
    return FinetuneResult(model, losses, list(queue.trace), store, tokens, labels)


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
    chunk = 16
    for i in range(0, len(corpus), chunk):
        part = corpus[i:i + chunk]
        pred = model.seg_predict(_stack_images(part), class_names)
        counts.accumulate(pred, np.stack([s.mask for s in part]))
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
        records = []
        for s in corpus:
            answer = model.generate_answer(s.image, model.vocab.encode(s.question))
            records.append(("other", answer, s.answer))
        per_type, mean = vqa_accuracy(records)
        report["vqa_exact_match"] = per_type.get("other", 0.0)
    return report


def run_stream(cfg: ExperimentConfig, seed: int) -> RunRecord:
    """Full pipeline for one (config, seed): pretrain, finetune, novel eval."""
    start = time.perf_counter()
    vocab = build_vocabulary()
    triple = build_corpora(cfg)
    pre = pretrain_stage(cfg, seed, triple, vocab)
    model = TaskModel(cfg, vocab, seed, pre.image_encoder, pre.text_encoder)
    fin = finetune_stage(cfg, seed, triple, vocab, model)
    novel = eval_stage(cfg, model, "novel", fin.training_tokens, fin.training_labels)
    record = RunRecord(config_hash=config_fingerprint(cfg), seed=seed)
    record.losses = {f"pretrain/{k}": v for k, v in pre.losses.items()}
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


def compare_streams(configs: dict[str, ExperimentConfig],
                    seeds: list[int]) -> ComparisonReport:
    """Run every stream at every seed and assemble the comparison table.

    Configs must be identical except for the pretraining mode; anything
    else varying would confound the comparison and is rejected.
    """
    if len(configs) < 2:
        raise ConfigError("compare needs at least two streams")
    items = sorted(configs.items())
    first_name, first_cfg = items[0]
    for name, other in items[1:]:
        diffs = diff_configs(first_cfg, other, ignore=("pretrain_mode",))
        if diffs:
            raise ConfigError(
                f"stream {name!r} differs from {first_name!r} in non-pretrain "
                f"fields: {diffs}")
    fold_label = "novel"
    rows: list[ComparisonRow] = []
    raw: dict[str, dict[int, float]] = {name: {} for name, _ in items}
    for name, cfg in items:
        for seed in seeds:
            record = run_stream(cfg, seed)
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


def save_encoders(pre: PretrainResult, cfg: ExperimentConfig,
                  directory: str | Path) -> None:
    named = {f"image_encoder.{k}": v for k, v in pre.image_encoder.state_dict().items()}
    named.update({f"text_encoder.{k}": v for k, v in pre.text_encoder.state_dict().items()})
    save_checkpoint(directory, named, config_text=serialize_config(cfg))


def load_encoders(cfg: ExperimentConfig, directory: str | Path, seed: int):
    from .model import encoder_config
    from .encoders import ImageEncoder, TextEncoder
    d = Path(directory)
    if not (d / "manifest.tsv").exists():
        raise DataError(f"missing encoder checkpoint at {d}")
    state = load_checkpoint(d)
    enc_cfg = encoder_config(cfg)
    img = ImageEncoder(enc_cfg, seed=f"img:{seed}")
    txt = TextEncoder(enc_cfg, seed=f"txt:{seed}")
    _load_state(img, {k[len("image_encoder."):]: v for k, v in state.items()
                      if k.startswith("image_encoder.")}, d)
    _load_state(txt, {k[len("text_encoder."):]: v for k, v in state.items()
                      if k.startswith("text_encoder.")}, d)
    return img, txt


def write_corpora_manifest(cfg: ExperimentConfig, directory: str | Path) -> Path:
    triple = build_corpora(cfg)
    return write_manifest(directory, {"paired": triple.paired,
                                      "image-only": triple.image_only,
                                      "text-only": triple.text_only})
