"""The benchmark's workloads: the CLI commands each one runs, in order, and
the check each command's outputs must pass.

The workload seed is the only input: it becomes the experiment seeds the
commands receive. The configs live in ``configs/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from checks import (CommandResult, StreamConfig, check_compare, check_eval,
                    check_finetune, check_pretrain)

CONFIGS = Path(__file__).resolve().parent / "configs"
SWEEP_SEEDS = 4


@dataclass
class Command:
    """One ``uniboost`` invocation; ``--out <dir>`` is appended per iteration."""
    name: str
    args: list[str]
    check: Callable[[Path], CommandResult]
    trains: bool = False
    evals: bool = False


@dataclass
class Workload:
    configs: list[Path]
    commands: list[Command]


def _compare(prefix: str, seeds: list[int]) -> Workload:
    paths = [CONFIGS / f"{prefix}-{mode}.cfg"
             for mode in ("masked-unimodal", "pair-contrastive")]
    cfgs = [StreamConfig.read(p) for p in paths]
    args = ["compare", *[a for p in paths for a in ("--config", str(p))],
            "--seeds", ",".join(map(str, seeds))]
    check = lambda out: check_compare(out, cfgs, seeds)
    return Workload(paths, [Command("compare", args, check, trains=True, evals=True)])


def train_stream(seed: int) -> Workload:
    return _compare("train", [seed])


def compare_sweep(seed: int) -> Workload:
    return _compare("sweep", list(range(seed, seed + SWEEP_SEEDS)))


def stage_chain(seed: int) -> Workload:
    path = CONFIGS / "chain-masked-unimodal.cfg"
    cfg = StreamConfig.read(path)
    common = ["--config", str(path), "--seed", str(seed)]
    return Workload([path], [
        Command("pretrain", ["pretrain", *common],
                lambda out: check_pretrain(out, cfg, seed), trains=True),
        Command("finetune-multitask", ["finetune-multitask", *common],
                lambda out: check_finetune(out, cfg, seed), trains=True),
        *[Command(f"eval-{split}", ["eval", *common, "--split", split, "--vqa"],
                  lambda out, split=split: check_eval(out, cfg, seed, split), evals=True)
          for split in ("base", "novel")],
    ])


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "train-stream": train_stream,
    "compare-sweep": compare_sweep,
    "stage-chain": stage_chain,
}
