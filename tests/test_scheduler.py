"""Multitask scheduler: chunking, resampled last batch, rounds, rebalance."""

import math

import numpy as np
import pytest

from uniboost.scheduler import (AugSpec, DataQueue, RebalancePolicy,
                                SchedulerError, TaskDataset, apply_augmentation,
                                build_batches, build_round, rebalance)


def make_task(task_id, n, batch_size, seed=0, route="image-only"):
    ids = tuple(f"{task_id}-{i:04d}" for i in range(n))
    return TaskDataset(task_id, route, ids, batch_size, seed)


# ---------------------------------------------------------------- batches

def test_ten_over_four_gives_three_intact_batches():
    ds = make_task("seg", 10, 4)
    batches = build_batches(ds)
    assert len(batches) == 3 == ds.batches_per_round
    assert all(len(b.sample_ids) == 4 for b in batches)
    # first two batches partition 8 distinct samples
    first_two = batches[0].sample_ids + batches[1].sample_ids
    assert len(set(first_two)) == 8
    # last batch: the two leftovers plus two distinct resampled ids
    last = batches[2].sample_ids
    assert len(set(last)) == 4
    leftovers = set(ds.sample_ids) - set(first_two)
    assert leftovers <= set(last)
    assert set(last) - leftovers <= set(first_two)


def test_eight_over_four_partitions_exactly():
    ds = make_task("vqa", 8, 4)
    batches = build_batches(ds)
    assert len(batches) == 2
    seen = [s for b in batches for s in b.sample_ids]
    assert sorted(seen) == sorted(ds.sample_ids)


def test_every_sample_appears_each_round():
    for n, b in [(10, 4), (7, 3), (9, 2), (5, 5), (13, 6)]:
        ds = make_task("t", n, b, seed=n * 10 + b)
        covered = {s for batch in build_batches(ds) for s in batch.sample_ids}
        assert covered == set(ds.sample_ids), (n, b)


def test_batches_never_contain_duplicates():
    for seed in range(20):
        ds = make_task("t", 11, 4, seed=seed)
        for batch in build_batches(ds):
            assert len(set(batch.sample_ids)) == len(batch.sample_ids)


def test_batch_size_larger_than_dataset_rejected():
    ds = make_task("t", 3, 3)
    object.__setattr__(ds, "batch_size", 4)
    with pytest.raises(SchedulerError, match="exceeds dataset size"):
        build_batches(ds)


def test_dataset_validation():
    with pytest.raises(SchedulerError, match="batch size"):
        make_task("t", 4, 0)
    with pytest.raises(SchedulerError, match="no samples"):
        TaskDataset("t", "image-only", (), 2, 0)


# ---------------------------------------------------------------- rounds

def small_roster(seed=0):
    return [make_task("seg", 10, 4, seed=seed),
            make_task("vqa", 7, 3, seed=seed + 1),
            make_task("cap", 5, 5, seed=seed + 2)]


def test_round_length_is_sum_of_ceils():
    tasks = small_roster()
    batches = build_round(tasks, seed=0)
    want = sum(math.ceil(len(t.sample_ids) / t.batch_size) for t in tasks)
    assert len(batches) == want == 3 + 3 + 1


def test_round_batches_are_single_task():
    for batch in build_round(small_roster(), seed=1):
        assert all(s.startswith(batch.task_id + "-") for s in batch.sample_ids)


def test_round_is_seed_deterministic():
    a = build_round(small_roster(), seed=7)
    b = build_round(small_roster(), seed=7)
    c = build_round(small_roster(), seed=8)
    assert [(x.task_id, x.sample_ids) for x in a] == \
           [(x.task_id, x.sample_ids) for x in b]
    assert [(x.task_id, x.sample_ids) for x in a] != \
           [(x.task_id, x.sample_ids) for x in c]


def test_successive_rounds_reshuffle():
    tasks = small_roster()
    r1 = build_round(tasks, seed=3, round_index=1)
    r2 = build_round(tasks, seed=3, round_index=2)
    assert len(r1) == len(r2)
    assert [(x.task_id, x.sample_ids) for x in r1] != \
           [(x.task_id, x.sample_ids) for x in r2]


def test_randomized_rosters_small_property_sweep():
    rng = np.random.default_rng(42)
    for trial in range(50):
        tasks = []
        for t in range(rng.integers(1, 5)):
            n = int(rng.integers(2, 40))
            b = int(rng.integers(1, n + 1))
            tasks.append(make_task(f"task{t}", n, b, seed=int(rng.integers(1 << 30))))
        batches = build_round(tasks, seed=trial)
        assert len(batches) == sum(t.batches_per_round for t in tasks)
        per_task: dict[str, set] = {t.task_id: set() for t in tasks}
        sizes = {t.task_id: t.batch_size for t in tasks}
        for batch in batches:
            assert len(batch.sample_ids) == sizes[batch.task_id]
            assert len(set(batch.sample_ids)) == len(batch.sample_ids)
            per_task[batch.task_id].update(batch.sample_ids)
        for t in tasks:
            assert per_task[t.task_id] == set(t.sample_ids)


# ---------------------------------------------------------------- queue

def test_queue_streams_rounds_and_rolls_over():
    tasks = small_roster()
    q = DataQueue(tasks, seed=5)
    per_round = q.batches_per_round
    first = [q.next_batch() for _ in range(per_round)]
    assert q.round == 1
    nxt = q.next_batch()
    assert q.round == 2
    assert isinstance(nxt.task_id, str)
    replay = DataQueue(tasks, seed=5)
    again = [replay.next_batch() for _ in range(per_round)]
    assert [(b.task_id, b.sample_ids) for b in first] == \
           [(b.task_id, b.sample_ids) for b in again]


def test_queue_trace_records_round_position_task():
    q = DataQueue(small_roster(), seed=6)
    q.next_batch()
    q.next_batch()
    assert q.trace[0].startswith("1\t0\t")
    assert q.trace[1].startswith("1\t1\t")
    assert len(q.trace[0].split("\t")) == 4


def test_queue_rejects_duplicate_task_ids():
    t = make_task("seg", 4, 2)
    with pytest.raises(SchedulerError, match="duplicate task ids"):
        DataQueue([t, t], seed=0)
    with pytest.raises(SchedulerError, match="no datasets"):
        build_round([], seed=0)


# ---------------------------------------------------------------- rebalance

def test_rebalance_reaches_threshold_with_augmented_copies():
    ds = make_task("seg", 100, 4)
    policy = RebalancePolicy(threshold=640)
    bigger, plan = rebalance(ds, policy)
    # ceil(640 / 100) = 7 copies total -> 600 derived ids
    assert len(bigger.sample_ids) == 700
    assert len(plan) == 600
    assert bigger.sample_ids[:100] == ds.sample_ids
    for did, spec in plan.items():
        assert "#aug" in did
        assert did.split("#")[0] == spec.source_id
        assert 0.8 <= spec.scale < 1.2
        assert 0.0 <= spec.offset_y < 1.0 and 0.0 <= spec.offset_x < 1.0


def test_rebalance_noop_when_large_enough():
    ds = make_task("seg", 640, 4)
    bigger, plan = rebalance(ds, RebalancePolicy(threshold=640))
    assert bigger is ds and plan == {}


def test_rebalance_scales_cover_the_range():
    ds = make_task("seg", 50, 4, seed=123)
    _, plan = rebalance(ds, RebalancePolicy(threshold=1000))
    scales = np.array([s.scale for s in plan.values()])
    assert scales.min() >= 0.8 and scales.max() < 1.2
    hist, _ = np.histogram(scales, bins=4, range=(0.8, 1.2))
    assert (hist > 0).all()


def test_rebalance_is_deterministic():
    ds = make_task("seg", 30, 4, seed=77)
    _, plan_a = rebalance(ds, RebalancePolicy(threshold=100))
    _, plan_b = rebalance(ds, RebalancePolicy(threshold=100))
    assert plan_a == plan_b


def test_rebalance_policy_validation():
    with pytest.raises(SchedulerError, match="threshold"):
        RebalancePolicy(threshold=0)


# ---------------------------------------------------------------- augmentation

def test_apply_augmentation_preserves_shape_and_dtype():
    rng = np.random.default_rng(9)
    img = rng.uniform(size=(16, 16, 3))
    mask = rng.integers(0, 4, size=(16, 16))
    for scale in (0.8, 1.0, 1.19):
        spec = AugSpec("x", scale, 0.3, 0.7)
        out_img = apply_augmentation(img, spec)
        out_mask = apply_augmentation(mask, spec)
        assert out_img.shape == img.shape
        assert out_mask.shape == mask.shape
        assert out_mask.dtype == mask.dtype


def test_apply_augmentation_identity_at_unit_scale():
    rng = np.random.default_rng(10)
    img = rng.uniform(size=(8, 8, 3))
    out = apply_augmentation(img, AugSpec("x", 1.0, 0.9, 0.1))
    assert np.array_equal(out, img)


def test_apply_augmentation_pads_when_shrinking():
    ones = np.ones((10, 10))
    out = apply_augmentation(ones, AugSpec("x", 0.8, 0.0, 0.0))
    assert out.shape == (10, 10)
    assert (out == 0).sum() == 100 - 64
    assert out[:8, :8].sum() == 64


def test_apply_augmentation_crops_when_growing():
    arr = np.arange(1, 101, dtype=float).reshape(10, 10)
    out = apply_augmentation(arr, AugSpec("x", 1.19, 0.0, 0.0))
    assert out.shape == (10, 10)
    assert (out == 0).sum() == 0  # pure crop, no padding
