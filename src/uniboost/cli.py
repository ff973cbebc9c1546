"""Command-line harness.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 invariant
or leakage violation. The UNIBOOST_OUT environment variable overrides
--out wherever an output directory is taken.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import pipeline
from .config import ConfigError, ExperimentConfig, parse_config
from .metrics import MetricError
from .model import TaskModel
from .pipeline import ComparisonReport, ComparisonRow, DataError, LeakageError
from .scheduler import SchedulerError
from .shapeworld import SHAPES, ManifestError, build_vocabulary
from .splits import ClassFoldSpec, SplitError, fold_split
from .tensorio import TensorFormatError

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INVARIANT = 4


def _load_config(path: str, seed: int | None, steps: int | None,
                 out: str | None) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    cfg = parse_config(p.read_text())
    if seed is not None:
        cfg.seed = seed
    if steps is not None:
        cfg.steps = steps
    if out:
        cfg.out = out
    return cfg


def _out_dir(args, cfg: ExperimentConfig | None = None) -> Path:
    env = os.environ.get("UNIBOOST_OUT")
    chosen = env or args.out or (cfg.out if cfg else "runs")
    d = Path(chosen)
    d.mkdir(parents=True, exist_ok=True)
    return d


def _pretrain_dir(out: Path, cfg: ExperimentConfig) -> Path:
    return out / f"pretrain-{cfg.pretrain_mode}-seed{cfg.seed}"


def _model_dir(out: Path, cfg: ExperimentConfig) -> Path:
    return out / f"model-{cfg.pretrain_mode}-seed{cfg.seed}"


def cmd_gen_data(args) -> int:
    cfg = _load_config(args.config, args.seed, args.steps, args.out)
    out = _out_dir(args, cfg)
    manifest = pipeline.write_corpora_manifest(cfg, out / "data")
    print(f"wrote {manifest}")
    return EXIT_OK


def cmd_split(args) -> int:
    cfg = _load_config(args.config, args.seed, args.steps, args.out)
    out = _out_dir(args, cfg)
    n = len(SHAPES)
    folds = {}
    for i in range(4):
        base, novel = fold_split(ClassFoldSpec(n, 4, i), list(SHAPES))
        folds[f"fold{i}"] = {"base": base, "novel": novel}
    path = out / "splits.json"
    path.write_text(json.dumps({"folds": folds,
                                "configured_novel": list(cfg.novel_shapes)},
                               indent=2, sort_keys=True))
    print(f"wrote {path}")
    return EXIT_OK


def cmd_pretrain(args) -> int:
    cfg = _load_config(args.config, args.seed, None, args.out)
    if args.steps is not None:
        cfg.pretrain_steps = args.steps
    out = _out_dir(args, cfg)
    vocab = build_vocabulary()
    triple = pipeline.build_corpora(cfg)
    result = pipeline.pretrain_stage(cfg, cfg.seed, triple, vocab)
    ckpt = _pretrain_dir(out, cfg)
    pipeline.save_encoders(result, cfg, ckpt)
    (ckpt / "losses.json").write_text(json.dumps(result.losses))
    for name, trace in sorted(result.losses.items()):
        if trace:
            print(f"{name}: first {trace[0]:.4f} last {trace[-1]:.4f} ({len(trace)} steps)")
    print(f"saved encoders to {ckpt}")
    return EXIT_OK


def _finetune(args, only_task: str | None) -> int:
    cfg = _load_config(args.config, args.seed, args.steps, args.out)
    if only_task is not None:
        keep = [t for t in cfg.tasks if t.task_id == only_task]
        if not keep:
            raise ConfigError(f"no task section named {only_task!r}")
        cfg.tasks = keep
    out = _out_dir(args, cfg)
    img, txt = pipeline.load_encoders(cfg, _pretrain_dir(out, cfg), cfg.seed)
    vocab = build_vocabulary()
    triple = pipeline.build_corpora(cfg)
    model = TaskModel(cfg, vocab, cfg.seed, img, txt)
    fin = pipeline.finetune_stage(cfg, cfg.seed, triple, vocab, model)
    mdir = _model_dir(out, cfg)
    pipeline.save_model(model, cfg, mdir)
    (mdir / "schedule_trace.tsv").write_text("\n".join(fin.trace) + "\n")
    (mdir / "losses.json").write_text(json.dumps(fin.losses))
    (mdir / "training_audit.json").write_text(json.dumps({
        "tokens": sorted(fin.training_tokens),
        "mask_labels": sorted(fin.training_labels)}))
    for task, trace in sorted(fin.losses.items()):
        if trace:
            print(f"{task}: first {trace[0]:.4f} last {trace[-1]:.4f} ({len(trace)} batches)")
    print(f"saved model to {mdir}")
    return EXIT_OK


def cmd_finetune_multitask(args) -> int:
    return _finetune(args, None)


def cmd_finetune_task(args) -> int:
    return _finetune(args, args.task)


def _read_audit(path: Path) -> tuple[set[str], set[int]]:
    """The training tokens and mask labels that a novel eval audits against."""
    if not path.exists():
        raise LeakageError(f"no training audit at {path}; novel eval refused")
    try:
        audit = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise LeakageError(f"{path} is not valid JSON ({exc}); novel eval refused") from exc
    tokens = audit.get("tokens") if isinstance(audit, dict) else None
    labels = audit.get("mask_labels") if isinstance(audit, dict) else None
    if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)
            and isinstance(labels, list) and all(isinstance(l, int) for l in labels)):
        raise LeakageError(f"{path} lacks 'tokens' or 'mask_labels' lists; novel eval refused")
    return set(tokens), set(labels)


def cmd_eval(args) -> int:
    cfg = _load_config(args.config, args.seed, args.steps, args.out)
    out = _out_dir(args, cfg)
    ckpt = Path(args.checkpoint) if args.checkpoint else _model_dir(out, cfg)
    model = pipeline.load_model(cfg, ckpt, cfg.seed)
    tokens, labels = (_read_audit(ckpt / "training_audit.json") if args.split == "novel"
                      else (None, None))
    report = pipeline.eval_stage(cfg, model, args.split, tokens, labels, eval_vqa=args.vqa)
    path = out / f"eval-{args.split}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True))
    print(f"{args.split} mIoU {100 * report['miou']:.1f} "
          f"FB-IoU {100 * report['fb_iou']:.1f} pixAcc {100 * report['pix_acc']:.1f}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_compare(args) -> int:
    if len(args.config) < 2:
        raise ConfigError("compare needs at least two --config files")
    configs: dict[str, ExperimentConfig] = {}
    for path in args.config:
        cfg = _load_config(path, args.seed, args.steps, args.out)
        if cfg.pretrain_mode in configs:
            raise ConfigError(f"two configs share pretrain mode {cfg.pretrain_mode!r}")
        configs[cfg.pretrain_mode] = cfg
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [0]
    out = _out_dir(args, next(iter(configs.values())))
    report = pipeline.compare_streams(configs, seeds)
    csv_path, txt_path = pipeline.emit_comparison(report, out)
    (out / "comparison.json").write_text(json.dumps(
        dataclasses.asdict(report), indent=2, sort_keys=True))
    sys.stdout.write(pipeline.comparison_text(report))
    print(f"wrote {csv_path} and {txt_path}")
    return EXIT_OK


def cmd_report(args) -> int:
    src = Path(args.input)
    if not src.exists():
        raise DataError(f"no comparison record at {src}")
    try:
        payload = json.loads(src.read_text())
        report = ComparisonReport(
            fold_labels=payload["fold_labels"],
            rows=[ComparisonRow(**r) for r in payload["rows"]],
            win_counts=payload["win_counts"],
            stream_means=payload["stream_means"])
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise DataError(f"{src} is not a comparison record: {exc!r}") from exc
    out = _out_dir(args)
    csv_path, txt_path = pipeline.emit_comparison(report, out)
    print(f"wrote {csv_path} and {txt_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="uniboost",
                                     description="desk-scale multitask pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True, multi_config=False):
        if multi_config:
            p.add_argument("--config", action="append", default=[],
                           help="config file (repeat for each stream)")
        else:
            p.add_argument("--config", required=config_required, help="config file")
        p.add_argument("--seed", type=int, default=None, help="override [run] seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--steps", type=int, default=None, help="override step count")

    p = sub.add_parser("gen-data", help="generate corpora and write a manifest")
    common(p)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("split", help="write class fold splits")
    common(p)
    p.set_defaults(fn=cmd_split)

    p = sub.add_parser("pretrain", help="pretrain encoders for the configured stream")
    common(p)
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("finetune-multitask", help="multitask intermediate fine-tuning")
    common(p)
    p.set_defaults(fn=cmd_finetune_multitask)

    p = sub.add_parser("finetune-task", help="fine-tune a single configured task")
    common(p)
    p.add_argument("--task", required=True, help="task id to train")
    p.set_defaults(fn=cmd_finetune_task)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    common(p)
    p.add_argument("--checkpoint", default=None, help="model checkpoint directory")
    p.add_argument("--split", choices=("base", "novel"), default="novel")
    p.add_argument("--vqa", action="store_true", help="also score VQA exact match")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("compare", help="run and compare pretraining streams")
    common(p, multi_config=True)
    p.add_argument("--seeds", default="0", help="comma-separated seeds")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("report", help="re-emit a saved comparison")
    p.add_argument("--input", required=True, help="comparison.json path")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, ManifestError, SplitError, TensorFormatError,
            FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (LeakageError, SchedulerError, MetricError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
