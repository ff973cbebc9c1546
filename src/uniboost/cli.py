"""Command-line harness.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 invariant
or leakage violation, including a diverged run (a non-finite or missing
gradient, or a numpy overflow raised by ``-W error::RuntimeWarning`` or
``np.seterr``). The output directory is UNIBOOST_OUT, else --out, else
``runs``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import pipeline
from .config import ConfigError, ExperimentConfig, parse_config
from .metrics import MetricError
from .model import TaskModel
from .optim import MissingGradError, NonFiniteGradError
from .pipeline import DataError, LeakageError
from .pretrain import CorpusMismatchError
from .scheduler import SchedulerError
from .shapeworld import build_vocabulary
from .tensorio import TensorFormatError

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INVARIANT = 4


def _load_config(path: str) -> ExperimentConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from None
    return parse_config(text)


def _seed(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed {args.seed} must be >= 0")
    return args.seed


def _out_dir(args) -> Path:
    d = Path(os.environ.get("UNIBOOST_OUT") or args.out or "runs")
    try:
        d.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ConfigError(f"output path {d} is not a directory") from None
    return d


def _pretrain_dir(out: Path, cfg: ExperimentConfig, seed: int) -> Path:
    return out / f"pretrain-{cfg.pretrain_mode}-seed{seed}"


def _model_dir(out: Path, cfg: ExperimentConfig, seed: int) -> Path:
    return out / f"model-{cfg.pretrain_mode}-seed{seed}"


def cmd_pretrain(args) -> int:
    cfg = _load_config(args.config)
    seed = _seed(args)
    out = _out_dir(args)
    corpora = pipeline.build_corpora(cfg)
    model = TaskModel(cfg, build_vocabulary(), seed)
    losses = pipeline.pretrain_stage(cfg, seed, corpora, model)
    ckpt = _pretrain_dir(out, cfg, seed)
    pipeline.save_model(model, cfg, ckpt, {"losses.json": json.dumps(losses)})
    for name, trace in sorted(losses.items()):
        if trace:
            print(f"{name}: first {trace[0]:.4f} last {trace[-1]:.4f} ({len(trace)} steps)")
    print(f"saved pretrained model to {ckpt}")
    return EXIT_OK


def cmd_finetune_multitask(args) -> int:
    cfg = _load_config(args.config)
    seed = _seed(args)
    out = _out_dir(args)
    model = pipeline.load_model(cfg, _pretrain_dir(out, cfg, seed))
    corpora = pipeline.build_corpora(cfg)
    fin = pipeline.finetune_stage(cfg, seed, corpora, model)
    mdir = _model_dir(out, cfg, seed)
    pipeline.save_model(model, cfg, mdir, {
        "schedule_trace.tsv": "\n".join(fin.trace) + "\n",
        "losses.json": json.dumps(fin.losses),
        "training_audit.json": json.dumps({"tokens": sorted(fin.training_tokens),
                                           "mask_labels": sorted(fin.training_labels)})})
    for task, trace in sorted(fin.losses.items()):
        if trace:
            print(f"{task}: first {trace[0]:.4f} last {trace[-1]:.4f} ({len(trace)} batches)")
    print(f"saved model to {mdir}")
    return EXIT_OK


def _read_audit(path: Path) -> tuple[set[str], set[int]]:
    """The training tokens and mask labels that a novel eval audits against."""
    if not path.is_file():
        raise LeakageError(f"no training audit at {path}; novel eval refused")
    try:
        audit = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise LeakageError(f"{path} is not valid UTF-8 JSON ({exc}); novel eval refused") from exc
    tokens = audit.get("tokens") if isinstance(audit, dict) else None
    labels = audit.get("mask_labels") if isinstance(audit, dict) else None
    # type(l) is int: to isinstance, a JSON true or false is an int too
    if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)
            and isinstance(labels, list) and all(type(l) is int for l in labels)):
        raise LeakageError(f"{path} lacks a 'tokens' list of strings or a 'mask_labels' "
                           f"list of integers; novel eval refused")
    return set(tokens), set(labels)


def cmd_eval(args) -> int:
    cfg = _load_config(args.config)
    seed = _seed(args)
    out = _out_dir(args)
    ckpt = _model_dir(out, cfg, seed)
    model = pipeline.load_model(cfg, ckpt)
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
    configs: dict[str, ExperimentConfig] = {}
    for path in args.config:
        cfg = _load_config(path)
        if cfg.pretrain_mode in configs:
            raise ConfigError(f"two configs share pretrain mode {cfg.pretrain_mode!r}")
        configs[cfg.pretrain_mode] = cfg
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        raise ConfigError(f"--seeds {args.seeds!r} is not a comma-separated list of "
                          "integers") from None
    pipeline.check_comparison(configs, seeds)  # before the output directory is made
    out = _out_dir(args)
    report = pipeline.compare_streams(configs, seeds)
    csv_path, txt_path = pipeline.emit_comparison(report, out)
    sys.stdout.write(pipeline.comparison_text(report))
    print(f"wrote {csv_path} and {txt_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="uniboost",
                                     description="desk-scale multitask pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help):
        # no abbreviated flags: `compare --seed 7` must not run as `--seeds 7`
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(fn=fn)
        p.add_argument("--config", required=True, help="config file")
        p.add_argument("--seed", type=int, default=0,
                       help="the model seed and checkpoint directory (default 0)")
        p.add_argument("--out", default=None, help="output directory")
        return p

    command("pretrain", cmd_pretrain, "pretrain encoders for the configured stream")
    command("finetune-multitask", cmd_finetune_multitask, "multitask intermediate fine-tuning")
    p = command("eval", cmd_eval, "evaluate the fine-tuned checkpoint on a split")
    p.add_argument("--split", choices=("base", "novel"), default="novel")
    p.add_argument("--vqa", action="store_true", help="also score VQA exact match")

    p = sub.add_parser("compare", help="run and compare pretraining streams", allow_abbrev=False)
    p.set_defaults(fn=cmd_compare)
    p.add_argument("--config", action="append", default=[],
                   help="config file (repeat for each stream)")
    p.add_argument("--seeds", default="0", help="comma-separated seeds")
    p.add_argument("--out", default=None, help="output directory")

    return parser


def main(argv: list[str] | None = None) -> int:
    pipeline.tune_allocator()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, TensorFormatError, CorpusMismatchError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (LeakageError, SchedulerError, MetricError, NonFiniteGradError,
            MissingGradError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (FloatingPointError, RuntimeWarning) as exc:  # numpy errors set to raise
        print(f"invariant violation: numeric fault: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
