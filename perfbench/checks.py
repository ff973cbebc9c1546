"""Output checks: each operation of a workload passes only if its artifacts
are complete and sane.

An operation is one (stream, seed) job of a ``compare`` command, or one
staged command. The checks read only what the CLI wrote and never import
the program. Each returns, per operation, the reasons it failed (none when
it passed) and a fingerprint of its behaviour: a sha256 of its loss traces
and eval metrics. The runner compares fingerprints across the iterations of
one run; a mismatch fails the operation too.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path


# losses (each one batch per step) a pretraining step computes, by mode
PRETRAIN_OBJECTIVES = {"masked-unimodal": 2, "pair-contrastive": 1, "supervised": 1}


@dataclass
class StreamConfig:
    """The fields of a uniboost config file that the checks compare against."""
    mode: str
    pretrain_steps: int
    pretrain_batch: int
    steps: int
    eval_samples: int
    novel_shapes: tuple[str, ...]
    task_batch: dict[str, int]

    @classmethod
    def read(cls, path: Path) -> "StreamConfig":
        ini = configparser.ConfigParser()
        ini.read_string(path.read_text())
        return cls(mode=ini["pretrain"]["mode"],
                   pretrain_steps=ini.getint("pretrain", "steps"),
                   pretrain_batch=ini.getint("pretrain", "batch_size"),
                   steps=ini.getint("run", "steps"),
                   eval_samples=ini.getint("run", "eval_samples"),
                   novel_shapes=tuple(s.strip() for s in
                                      ini["data"]["novel_shapes"].split(",")),
                   task_batch={name[5:]: ini.getint(name, "batch_size")
                               for name in ini.sections() if name.startswith("task ")})


@dataclass
class OpResult:
    name: str
    reasons: list[str] = field(default_factory=list)
    fingerprint: str = ""

    @property
    def ok(self) -> bool:
        return not self.reasons


@dataclass
class CommandResult:
    """The operations of one command, and the work it reports having done."""
    ops: list[OpResult]
    train_samples: int = 0
    eval_images: int = 0


def compare_fingerprints(iterations: list[list[OpResult]]) -> None:
    """Fail every operation whose fingerprint differs from the same
    operation's in the first iteration: one seed, one behaviour."""
    reference = {op.name: op.fingerprint for op in iterations[0]}
    for ops in iterations[1:]:
        for op in ops:
            if op.fingerprint != reference.get(op.name):
                op.reasons.append("behaviour fingerprint differs from the first iteration")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_json(path: Path, reasons: list[str]):
    if not path.is_file():
        reasons.append(f"missing {path.name}")
        return None
    try:
        return json.loads(path.read_text())
    except ValueError as exc:
        reasons.append(f"unreadable {path.name}: {exc}")
        return None


def _check_trace(name: str, trace, expected: int | None, reasons: list[str]) -> int:
    if not isinstance(trace, list):
        reasons.append(f"loss trace {name} is not a list")
        return 0
    if expected is not None and len(trace) != expected:
        reasons.append(f"loss trace {name} has {len(trace)} steps, expected {expected}")
    if not all(isinstance(x, (int, float)) and math.isfinite(x) for x in trace):
        reasons.append(f"loss trace {name} has a non-finite value")
    return len(trace)


def _check_unit(payload: dict, key: str, reasons: list[str], top: float = 1.0) -> None:
    value = payload.get(key)
    if not isinstance(value, (int, float)) or not 0.0 <= value <= top:
        reasons.append(f"{key} = {value!r} outside [0, {top:g}]")


def check_audit(model_dir: Path, cfg: StreamConfig, reasons: list[str]) -> None:
    audit = _read_json(model_dir / "training_audit.json", reasons)
    if audit is None:
        return
    leaked = sorted(set(cfg.novel_shapes) & set(audit.get("tokens", [])))
    if leaked:
        reasons.append(f"training audit holds novel-class tokens {leaked}")


def check_pretrain(out: Path, cfg: StreamConfig, seed: int) -> CommandResult:
    op = OpResult("pretrain")
    ckpt = out / f"pretrain-{cfg.mode}-seed{seed}"
    losses = _read_json(ckpt / "losses.json", op.reasons)
    samples = 0
    if losses is not None:
        if not losses:
            op.reasons.append("no pretraining loss trace")
        for name, trace in sorted(losses.items()):
            samples += cfg.pretrain_batch * _check_trace(name, trace, cfg.pretrain_steps,
                                                         op.reasons)
        op.fingerprint = _sha((ckpt / "losses.json").read_bytes())
    if not (ckpt / "manifest.tsv").is_file():
        op.reasons.append("missing encoder checkpoint manifest")
    return CommandResult([op], train_samples=samples)


def check_finetune(out: Path, cfg: StreamConfig, seed: int) -> CommandResult:
    op = OpResult("finetune-multitask")
    mdir = out / f"model-{cfg.mode}-seed{seed}"
    losses = _read_json(mdir / "losses.json", op.reasons)
    samples = 0
    if losses is not None:
        if sorted(losses) != sorted(cfg.task_batch):
            op.reasons.append(f"loss traces for tasks {sorted(losses)}, "
                              f"expected {sorted(cfg.task_batch)}")
        steps = 0
        for task, trace in sorted(losses.items()):
            n = _check_trace(task, trace, None, op.reasons)
            steps += n
            samples += n * cfg.task_batch.get(task, 0)
        if steps != cfg.steps:
            op.reasons.append(f"loss traces hold {steps} steps, expected {cfg.steps}")
        op.fingerprint = _sha((mdir / "losses.json").read_bytes())
    if not (mdir / "manifest.tsv").is_file():
        op.reasons.append("missing model checkpoint manifest")
    check_audit(mdir, cfg, op.reasons)
    return CommandResult([op], train_samples=samples)


def check_eval(out: Path, cfg: StreamConfig, seed: int, split: str) -> CommandResult:
    op = OpResult(f"eval-{split}")
    path = out / f"eval-{split}.json"
    report = _read_json(path, op.reasons)
    images = 0
    if report is not None:
        images = report.get("samples", 0)
        if images != cfg.eval_samples:
            op.reasons.append(f"{images} eval samples, expected {cfg.eval_samples}")
        for key in ("miou", "fb_iou", "pix_acc", "vqa_exact_match"):
            _check_unit(report, key, op.reasons)
        op.fingerprint = _sha(path.read_bytes())
    if split == "novel":
        check_audit(out / f"model-{cfg.mode}-seed{seed}", cfg, op.reasons)
    return CommandResult([op], eval_images=images)


def check_compare(out: Path, cfgs: list[StreamConfig], seeds: list[int]) -> CommandResult:
    """One operation per (stream, seed) job of a ``compare`` command."""
    shared: list[str] = []
    streams = sorted(c.mode for c in cfgs)
    expected = {(s, str(seed)) for s in streams for seed in seeds}
    if (out / "comparison.csv").is_file():
        with open(out / "comparison.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        results = [(r[1], r[2]) for r in rows[1:] if r and r[0] == "result"]
        wins = sorted(r[1] for r in rows[1:] if r and r[0] == "wins")
        if len(results) != len(expected) or set(results) != expected:
            shared.append(f"comparison.csv has result rows {sorted(results)}, "
                          f"expected {sorted(expected)}")
        if wins != streams:
            shared.append(f"comparison.csv has wins rows {wins}, expected {streams}")
    else:
        shared.append("missing comparison.csv")
    report = _read_json(out / "comparison.json", shared)
    by_job = {}
    means = {}
    if report is not None:
        by_job = {(r["stream"], r["seed"]): r for r in report.get("rows", [])}
        means = report.get("stream_means", {})
        for stream in streams:
            _check_unit(means, stream, shared)

    ops = []
    for stream in streams:
        for seed in seeds:
            op = OpResult(f"{stream}:seed{seed}", list(shared))
            row = by_job.get((stream, seed))
            if row is None:
                op.reasons.append("no row in comparison.json")
            else:
                for key, value in [*row["fold_scores"].items(), ("mean", row["mean"]),
                                   ("fb", row["fb"])]:
                    _check_unit({key: value}, key, op.reasons, top=100.0)
                op.fingerprint = _sha(json.dumps([row, means.get(stream)],
                                                 sort_keys=True).encode())
            ops.append(op)
    # compare writes no loss traces, so its work is counted from the
    # configs: every seed runs each stream's steps in full
    train = sum(c.pretrain_steps * c.pretrain_batch * PRETRAIN_OBJECTIVES[c.mode]
                + c.steps * max(c.task_batch.values()) for c in cfgs)
    return CommandResult(ops, train_samples=train * len(seeds),
                         eval_images=sum(c.eval_samples for c in cfgs) * len(seeds))
