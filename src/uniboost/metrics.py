"""Segmentation and VQA metrics.

Confusion counts are a full gt x pred matrix over a fixed class list,
accumulated batch by batch; pixels labelled IGNORE_LABEL are skipped. VQA
accuracy is exact match against one reference answer. Scores live in
[0, 1]; report tables print them x100 at one decimal with half-up rounding.
"""

from __future__ import annotations

from collections import defaultdict
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

__all__ = ["ConfusionCounts", "fb_iou", "fold_mean", "round_half_up",
           "normalize_answer", "vqa_accuracy", "MetricError", "VQA_ANSWER_TYPES"]

IGNORE_LABEL = 255
VQA_ANSWER_TYPES = ("number", "yes/no", "other")


class MetricError(ValueError):
    """Undefined metric (zero denominators) or invalid inputs."""


class ConfusionCounts:
    """Pixel confusion matrix over an explicit class list."""

    def __init__(self, classes):
        self.classes = tuple(classes)
        if len(set(self.classes)) != len(self.classes):
            raise MetricError(f"duplicate classes in {self.classes}")
        k = len(self.classes)
        self.matrix = np.zeros((k, k), dtype=np.int64)
        self._index = {c: i for i, c in enumerate(self.classes)}

    def accumulate(self, predicted: np.ndarray, ground_truth: np.ndarray) -> "ConfusionCounts":
        pred = np.asarray(predicted).reshape(-1)
        gt = np.asarray(ground_truth).reshape(-1)
        if pred.shape != gt.shape or np.asarray(predicted).shape != np.asarray(ground_truth).shape:
            raise MetricError(
                f"mask shapes differ: {np.asarray(predicted).shape} "
                f"vs {np.asarray(ground_truth).shape}")
        keep = gt != IGNORE_LABEL
        pred, gt = pred[keep], gt[keep]
        known = set(self.classes)
        bad = (set(np.unique(pred)) | set(np.unique(gt))) - known
        if bad:
            raise MetricError(f"labels {sorted(bad)} outside class set {self.classes}")
        k = len(self.classes)
        gi = np.vectorize(self._index.__getitem__, otypes=[np.int64])(gt) if len(gt) else gt
        pi = np.vectorize(self._index.__getitem__, otypes=[np.int64])(pred) if len(pred) else pred
        self.matrix += np.bincount(gi * k + pi, minlength=k * k).reshape(k, k)
        return self

    # per-class views ------------------------------------------------------

    def intersection(self) -> np.ndarray:
        return np.diag(self.matrix).copy()

    def predicted_pixels(self) -> np.ndarray:
        return self.matrix.sum(axis=0)

    def ground_truth_pixels(self) -> np.ndarray:
        return self.matrix.sum(axis=1)

    def union(self) -> np.ndarray:
        return self.predicted_pixels() + self.ground_truth_pixels() - self.intersection()

    def per_class_iou(self) -> dict:
        inter, union = self.intersection(), self.union()
        return {c: inter[i] / union[i]
                for i, c in enumerate(self.classes) if union[i] > 0}

    def miou(self, classes=None) -> float:
        """Mean IoU over the given classes (default all), excluding classes
        with zero union."""
        wanted = self.classes if classes is None else tuple(classes)
        missing = set(wanted) - set(self.classes)
        if missing:
            raise MetricError(f"classes {sorted(missing)} were never counted")
        ious = self.per_class_iou()
        vals = [ious[c] for c in wanted if c in ious]
        if not vals:
            raise MetricError("no class has nonzero union; mIoU undefined")
        return float(np.mean(vals))

    def pix_acc(self) -> float:
        total = self.matrix.sum()
        if total == 0:
            raise MetricError("no pixels counted; pixAcc undefined")
        return float(np.trace(self.matrix) / total)


def fb_iou(counts: ConfusionCounts, foreground) -> float:
    """Collapse classes to binary foreground/background and average the two
    IoUs."""
    fg = set(foreground)
    if not fg:
        raise MetricError("empty foreground set")
    missing = fg - set(counts.classes)
    if missing:
        raise MetricError(f"foreground classes {sorted(missing)} were never counted")
    is_fg = np.array([c in fg for c in counts.classes])
    m = counts.matrix
    inter_fg = m[np.ix_(is_fg, is_fg)].sum()
    union_fg = m[is_fg, :].sum() + m[:, is_fg].sum() - inter_fg
    inter_bg = m[np.ix_(~is_fg, ~is_fg)].sum()
    union_bg = m[~is_fg, :].sum() + m[:, ~is_fg].sum() - inter_bg
    if union_fg == 0 and union_bg == 0:
        raise MetricError("both collapsed classes have zero union")
    iou_fg = inter_fg / union_fg if union_fg else 0.0
    iou_bg = inter_bg / union_bg if union_bg else 0.0
    return float((iou_fg + iou_bg) / 2.0)


def round_half_up(x: float, decimals: int = 1) -> float:
    """Decimal half-up rounding; values within 5e-10 of a half boundary are
    treated as on it, absorbing float representation noise."""
    pre = round(float(x), 9)
    q = Decimal(1).scaleb(-decimals)
    return float(Decimal(repr(pre)).quantize(q, rounding=ROUND_HALF_UP))


def fold_mean(per_fold_scores) -> float:
    """Arithmetic mean of per-fold scores at one-decimal table rounding."""
    scores = list(per_fold_scores)
    if not scores:
        raise MetricError("no fold scores")
    return round_half_up(float(np.mean(scores)), 1)


def normalize_answer(text: str) -> str:
    return " ".join(text.lower().split())


def vqa_accuracy(records) -> tuple[dict[str, float], float]:
    """Score (answer_type, prediction, reference) records by exact match.

    A record scores 1.0 iff the normalized prediction equals the single
    normalized reference. Returns per-type means plus the unweighted mean
    over answer types present.
    """
    by_type: dict[str, list[float]] = defaultdict(list)
    for answer_type, prediction, references in records:
        if answer_type not in VQA_ANSWER_TYPES:
            raise MetricError(f"unknown answer-type tag {answer_type!r}")
        refs = [references] if isinstance(references, str) else list(references)
        if len(refs) != 1:
            raise MetricError(f"exact-match expects a single reference, got {len(refs)}")
        score = float(normalize_answer(prediction) == normalize_answer(refs[0]))
        by_type[answer_type].append(score)
    if not by_type:
        raise MetricError("no records scored")
    per_type = {t: float(np.mean(v)) for t, v in by_type.items()}
    mean = float(np.mean([per_type[t] for t in VQA_ANSWER_TYPES if t in per_type]))
    return per_type, mean
