"""Multitask batch scheduler.

Each task's samples are shuffled and chunked into full batches; a short
final chunk is completed by resampling, without replacement, from the
rest of that task's samples, so every batch is intact and single-task.
All tasks' batches are then shuffled together into the round's data
queue. When the queue empties, every task reshuffles and a new round
begins. Small datasets can be rebalanced beforehand by appending
augmented duplicates until a minimum size is met.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["TaskDataset", "TaskBatch", "DataQueue", "RebalancePolicy", "AugSpec",
           "build_batches", "build_round", "rebalance", "apply_augmentation",
           "SchedulerError"]


class SchedulerError(ValueError):
    """Invalid scheduler configuration."""


@dataclass(frozen=True)
class TaskDataset:
    task_id: str
    route_kind: str
    sample_ids: tuple[str, ...]
    batch_size: int
    rng_seed: int

    def __post_init__(self):
        if self.batch_size < 1:
            raise SchedulerError(f"task {self.task_id}: batch size must be >= 1")
        if not self.sample_ids:
            raise SchedulerError(f"task {self.task_id}: no samples")

    @property
    def batches_per_round(self) -> int:
        return math.ceil(len(self.sample_ids) / self.batch_size)


@dataclass(frozen=True)
class TaskBatch:
    task_id: str
    sample_ids: tuple[str, ...]


def _task_rng(dataset: TaskDataset, round_index: int) -> np.random.Generator:
    return np.random.default_rng([dataset.rng_seed, round_index])


def build_batches(dataset: TaskDataset, round_index: int = 1) -> list[TaskBatch]:
    """Shuffle, chunk, and complete the final short chunk by drawing
    uniformly without replacement from the dataset minus the leftovers."""
    n, b = len(dataset.sample_ids), dataset.batch_size
    if b > n:
        raise SchedulerError(
            f"task {dataset.task_id}: batch size {b} exceeds dataset size {n}")
    rng = _task_rng(dataset, round_index)
    order = rng.permutation(n)
    ids = [dataset.sample_ids[i] for i in order]
    batches = [TaskBatch(dataset.task_id, tuple(ids[i:i + b]))
               for i in range(0, n - n % b, b)]
    leftover = ids[n - n % b:]
    if leftover:
        pool = ids[:n - n % b]
        fill = rng.choice(len(pool), size=b - len(leftover), replace=False)
        batches.append(TaskBatch(dataset.task_id,
                                 tuple(leftover) + tuple(pool[i] for i in fill)))
    return batches


def build_round(datasets: list[TaskDataset], seed: int, round_index: int = 1) -> list[TaskBatch]:
    """Concatenate every task's batches and apply one uniform permutation."""
    if not datasets:
        raise SchedulerError("no datasets")
    all_batches: list[TaskBatch] = []
    for ds in datasets:
        all_batches.extend(build_batches(ds, round_index))
    rng = np.random.default_rng([seed, round_index])
    order = rng.permutation(len(all_batches))
    return [all_batches[i] for i in order]


class DataQueue:
    """Infinite single-consumer stream of single-task batches."""

    def __init__(self, datasets: list[TaskDataset], seed: int):
        ids = [ds.task_id for ds in datasets]
        if len(set(ids)) != len(ids):
            raise SchedulerError(f"duplicate task ids: {sorted(ids)}")
        self.datasets = list(datasets)
        self.seed = seed
        self.round = 1
        self._position = 0
        self._pending = build_round(self.datasets, seed, self.round)
        self.trace: list[str] = []

    @property
    def batches_per_round(self) -> int:
        return sum(ds.batches_per_round for ds in self.datasets)

    def next_batch(self) -> TaskBatch:
        if not self._pending:
            self.round += 1
            self._position = 0
            self._pending = build_round(self.datasets, self.seed, self.round)
        batch = self._pending.pop(0)
        self.trace.append(
            f"{self.round}\t{self._position}\t{batch.task_id}\t{','.join(batch.sample_ids)}")
        self._position += 1
        return batch


# rescale band of augmented duplicates, drawn uniformly from [low, high)
AUG_SCALE_LOW = 0.8
AUG_SCALE_HIGH = 1.2


@dataclass(frozen=True)
class RebalancePolicy:
    threshold: int = 640

    def __post_init__(self):
        if self.threshold < 1:
            raise SchedulerError("rebalance threshold must be >= 1")


@dataclass(frozen=True)
class AugSpec:
    source_id: str
    scale: float
    offset_y: float
    offset_x: float


def rebalance(dataset: TaskDataset,
              policy: RebalancePolicy) -> tuple[TaskDataset, dict[str, AugSpec]]:
    """Append augmented duplicates until the dataset reaches the threshold.

    Returns the (possibly) enlarged dataset plus a plan mapping each derived
    id to the augmentation to apply when its sample is materialized.
    Original ids and their order are preserved.
    """
    n = len(dataset.sample_ids)
    if n >= policy.threshold:
        return dataset, {}
    copies = math.ceil(policy.threshold / n)
    rng = np.random.default_rng([dataset.rng_seed, 0xA6])
    plan: dict[str, AugSpec] = {}
    derived: list[str] = []
    for k in range(1, copies):
        for sid in dataset.sample_ids:
            did = f"{sid}#aug{k}"
            scale = float(rng.uniform(AUG_SCALE_LOW, AUG_SCALE_HIGH))
            plan[did] = AugSpec(sid, scale, float(rng.uniform()), float(rng.uniform()))
            derived.append(did)
    new_ds = TaskDataset(dataset.task_id, dataset.route_kind,
                         dataset.sample_ids + tuple(derived),
                         dataset.batch_size, dataset.rng_seed)
    return new_ds, plan


def _nearest_resize(arr: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    h, w = arr.shape[:2]
    rows = np.minimum((np.arange(out_h) * h / out_h).astype(int), h - 1)
    cols = np.minimum((np.arange(out_w) * w / out_w).astype(int), w - 1)
    return arr[rows][:, cols]


def apply_augmentation(arr: np.ndarray, spec: AugSpec) -> np.ndarray:
    """Nearest-neighbor rescale by ``spec.scale`` then crop (scale > 1) or
    zero-pad (scale < 1) back to the original grid at a seeded offset.
    Works for [H, W] masks and [H, W, C] images alike."""
    h, w = arr.shape[:2]
    nh = max(1, round(h * spec.scale))
    nw = max(1, round(w * spec.scale))
    resized = _nearest_resize(arr, nh, nw)
    out = np.zeros_like(arr, shape=(h, w) + arr.shape[2:])

    def spans(n_out, n_in, frac):
        if n_in >= n_out:  # crop
            start = int(frac * (n_in - n_out + 1))
            return slice(0, n_out), slice(start, start + n_out)
        start = int(frac * (n_out - n_in + 1))  # pad
        return slice(start, start + n_in), slice(0, n_in)

    dst_y, src_y = spans(h, nh, spec.offset_y)
    dst_x, src_x = spans(w, nw, spec.offset_x)
    out[dst_y, dst_x] = resized[src_y, src_x]
    return out
