"""Metrics: confusion counts vs brute-force oracles, table rounding, VQA."""

import numpy as np
import pytest

from uniboost.metrics import (ConfusionCounts, MetricError, fb_iou, fold_mean,
                              normalize_answer, round_half_up, vqa_accuracy)

IGNORE = 255
CLASSES = (0, 1, 2, 3)


def random_instance(rng):
    pred = rng.integers(0, 4, size=(8, 8))
    gt = rng.integers(0, 4, size=(8, 8))
    gt[rng.uniform(size=(8, 8)) < 0.1] = IGNORE
    return pred, gt


def oracle_scores(pred, gt, foreground=(1, 2, 3)):
    """Direct set-arithmetic reference, no confusion matrix."""
    keep = gt != IGNORE
    p, g = pred[keep], gt[keep]
    ious = {}
    for c in CLASSES:
        inter = int(((p == c) & (g == c)).sum())
        union = int(((p == c) | (g == c)).sum())
        if union > 0:
            ious[c] = inter / union
    miou = float(np.mean([ious[c] for c in CLASSES if c in ious]))
    pix = int((p == g).sum()) / int(keep.sum())

    fg_p, fg_g = np.isin(p, foreground), np.isin(g, foreground)
    i_fg = int((fg_p & fg_g).sum())
    u_fg = int((fg_p | fg_g).sum())
    i_bg = int((~fg_p & ~fg_g).sum())
    u_bg = int((~fg_p | ~fg_g).sum())
    fb = ((i_fg / u_fg if u_fg else 0.0) + (i_bg / u_bg if u_bg else 0.0)) / 2.0
    return ious, miou, pix, fb


def test_hundred_random_instances_match_oracles_exactly():
    rng = np.random.default_rng(0)
    for _ in range(100):
        pred, gt = random_instance(rng)
        counts = ConfusionCounts(CLASSES).accumulate(pred, gt)
        ious, miou, pix, fb = oracle_scores(pred, gt)
        got = counts.per_class_iou()
        assert set(got) == set(ious)
        for c in ious:
            assert got[c] == ious[c]
        assert counts.miou() == miou
        assert counts.pix_acc() == pix
        assert fb_iou(counts, (1, 2, 3)) == fb


def test_confusion_matrix_layout():
    counts = ConfusionCounts((0, 1))
    counts.accumulate(np.array([0, 1, 1, 1]), np.array([0, 0, 1, 1]))
    # rows are ground truth, columns prediction
    assert np.array_equal(counts.matrix, [[1, 1], [0, 2]])
    assert counts.ground_truth_pixels().tolist() == [2, 2]
    assert counts.predicted_pixels().tolist() == [1, 3]
    assert counts.union().tolist() == [2, 3]


def test_ignore_label_pixels_are_dropped():
    counts = ConfusionCounts((0, 1))
    pred = np.array([1, 1, 0])
    gt = np.array([1, IGNORE, IGNORE])
    counts.accumulate(pred, gt)
    assert counts.matrix.sum() == 1
    assert counts.pix_acc() == 1.0


def test_unsorted_sparse_classes_match_a_per_pixel_lookup():
    """Labels map to matrix rows through the class list's order, not their
    value: a per-pixel dictionary lookup is the reference. Ground truth
    stored as uint8, as corpus masks are, counts the same."""
    classes = (7, 0, 12, 3)
    index = {c: i for i, c in enumerate(classes)}
    rng = np.random.default_rng(1)
    counts, want = ConfusionCounts(classes), np.zeros((4, 4), dtype=np.int64)
    narrow = ConfusionCounts(classes)
    for _ in range(20):
        pred = rng.choice(classes, size=(6, 6))
        gt = rng.choice(classes + (IGNORE,), size=(6, 6))
        counts.accumulate(pred, gt)
        narrow.accumulate(pred, gt.astype(np.uint8))
        for p, g in zip(pred.ravel(), gt.ravel()):
            if g != IGNORE:
                want[index[g], index[p]] += 1
    assert np.array_equal(counts.matrix, want)
    assert np.array_equal(narrow.matrix, want)
    with pytest.raises(MetricError, match=r"labels \[5, 13\] outside class set"):
        counts.accumulate(np.array([13, 0, 5]), np.array([0, 5, IGNORE]))
    assert np.array_equal(counts.matrix, want)


def test_accumulate_validation():
    counts = ConfusionCounts((0, 1))
    with pytest.raises(MetricError, match="shapes differ"):
        counts.accumulate(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(MetricError, match="outside class set"):
        counts.accumulate(np.array([2]), np.array([0]))
    with pytest.raises(MetricError, match="duplicate classes"):
        ConfusionCounts((0, 0, 1))


def test_miou_undefined_cases():
    counts = ConfusionCounts((0, 1))
    with pytest.raises(MetricError, match="never counted"):
        counts.miou(classes=(5,))
    with pytest.raises(MetricError, match="mIoU undefined"):
        counts.miou()
    with pytest.raises(MetricError, match="pixAcc undefined"):
        counts.pix_acc()


def test_miou_over_class_subset():
    counts = ConfusionCounts((0, 1, 2))
    counts.accumulate(np.array([0, 1, 2, 2]), np.array([0, 1, 1, 2]))
    ious = counts.per_class_iou()
    assert counts.miou(classes=(1, 2)) == float(np.mean([ious[1], ious[2]]))


def test_fb_iou_zero_union_side_counts_zero():
    counts = ConfusionCounts((0, 1))
    counts.accumulate(np.array([1, 1]), np.array([1, 1]))
    # background never appears on either side: its IoU contributes 0.0
    assert fb_iou(counts, (1,)) == 0.5
    with pytest.raises(MetricError, match="empty foreground"):
        fb_iou(counts, ())
    with pytest.raises(MetricError, match="never counted"):
        fb_iou(counts, (9,))


def test_fb_iou_hand_example():
    counts = ConfusionCounts((0, 1, 2))
    pred = np.array([[1, 2, 0], [0, 1, 1]])
    gt = np.array([[1, 1, 0], [2, 2, 1]])
    counts.accumulate(pred, gt)
    # foreground {1,2} collapses cross-class confusion into hits:
    # inter 4, union 5; background: inter 1, union 2
    assert fb_iou(counts, (1, 2)) == pytest.approx((4 / 5 + 1 / 2) / 2)


# ---------------------------------------------------------------- rounding

def test_round_half_up_behaviour():
    assert round_half_up(0.05, 1) == 0.1
    assert round_half_up(0.15, 1) == 0.2
    assert round_half_up(-0.05, 1) == -0.1
    assert round_half_up(2.5, 0) == 3.0
    assert round_half_up(32.85, 1) == 32.9  # bankers' rounding would say 32.8
    # sub-5e-10 representation noise is absorbed onto the half boundary
    assert round_half_up(56.549999999733, 1) == 56.6
    assert round_half_up(56.5489, 1) == 56.5
    assert round_half_up(56.44999, 1) == 56.4


def test_fold_mean_reproduces_reported_tables():
    assert fold_mean([67.3, 65.1, 46.7, 47.3]) == 56.6
    assert fold_mean([68.7, 67.1, 49.0, 50.4]) == 58.8
    assert fold_mean([30.4, 31.8, 35.7, 33.5]) == 32.9
    assert fold_mean([31.0, 33.2, 35.9, 33.6]) == 33.4
    with pytest.raises(MetricError, match="no fold scores"):
        fold_mean([])


def test_vqa_type_mean_reproduces_reported_table():
    assert round_half_up(float(np.mean([34.1, 75.9, 26.0])), 1) == 45.3


# ---------------------------------------------------------------- vqa

def _bulk_records(atype, n_right, n_total):
    recs = [(atype, "yes", "yes")] * n_right
    recs += [(atype, "no", "yes")] * (n_total - n_right)
    return recs


def test_vqa_accuracy_mean_is_unweighted_over_types():
    records = (_bulk_records("number", 341, 1000)
               + _bulk_records("yes/no", 759, 1000)
               + _bulk_records("other", 260, 1000))
    per_type, mean = vqa_accuracy(records)
    assert per_type["number"] == pytest.approx(0.341)
    assert per_type["yes/no"] == pytest.approx(0.759)
    assert per_type["other"] == pytest.approx(0.260)
    assert round_half_up(100.0 * mean, 1) == 45.3


def test_vqa_exact_match_normalizes():
    per_type, mean = vqa_accuracy([("other", "  Light   BROWN ", "light brown")])
    assert per_type == {"other": 1.0} and mean == 1.0
    assert normalize_answer("  TWO  Cats ") == "two cats"


def test_vqa_validation():
    with pytest.raises(MetricError, match="single reference"):
        vqa_accuracy([("other", "a", ["a", "b"])])
    with pytest.raises(MetricError, match="unknown answer-type"):
        vqa_accuracy([("counting", "a", "a")])
    with pytest.raises(MetricError, match="no records"):
        vqa_accuracy([])


def test_vqa_mean_skips_absent_types():
    per_type, mean = vqa_accuracy([("number", "2", "2"), ("number", "3", "2")])
    assert per_type == {"number": 0.5}
    assert mean == 0.5
