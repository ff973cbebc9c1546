"""Zero-shot split builders.

Class folds: the class list is sorted, divided into equal contiguous
blocks, and the indexed block is held out as novel. Token-frequency
splits: a record is novel iff any token from its source field (question
tokens for number and yes/no types, answer tokens for other) has corpus
frequency inside the half-open band.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .metrics import VQA_ANSWER_TYPES

__all__ = ["ClassFoldSpec", "VqaSplitSpec", "VqaRecord", "fold_split",
           "vqa_token_split", "count_source_tokens", "load_vqa_v2_records",
           "SplitError"]


class SplitError(ValueError):
    """Invalid split specification or record set."""


@dataclass(frozen=True)
class ClassFoldSpec:
    n_classes: int
    n_folds: int
    fold_index: int

    def __post_init__(self):
        if self.n_folds < 1 or self.n_classes < 1:
            raise SplitError("class and fold counts must be positive")
        if self.n_classes % self.n_folds:
            raise SplitError(
                f"{self.n_classes} classes not divisible into {self.n_folds} folds")
        if not 0 <= self.fold_index < self.n_folds:
            raise SplitError(f"fold index {self.fold_index} outside 0..{self.n_folds - 1}")


def fold_split(spec: ClassFoldSpec, classes=None) -> tuple[list, list]:
    """(base, novel) with novel = the fold's contiguous block in sorted order."""
    if classes is None:
        classes = list(range(spec.n_classes))
    else:
        classes = sorted(classes)
    if len(classes) != spec.n_classes:
        raise SplitError(f"got {len(classes)} classes, spec says {spec.n_classes}")
    k = spec.n_classes // spec.n_folds
    lo = spec.fold_index * k
    novel = classes[lo:lo + k]
    base = classes[:lo] + classes[lo + k:]
    return base, novel


@dataclass(frozen=True)
class VqaSplitSpec:
    answer_type: str
    lower: int = 10
    upper: int = 40

    def __post_init__(self):
        if self.answer_type not in VQA_ANSWER_TYPES:
            raise SplitError(f"unknown answer-type {self.answer_type!r}")
        if not self.lower < self.upper:
            raise SplitError(f"frequency band [{self.lower}, {self.upper}) is empty")

    @property
    def token_source(self) -> str:
        # number and yes/no questions share a tiny answer space, so their
        # novelty is carried by question tokens; open answers carry their own.
        return "answer" if self.answer_type == "other" else "question"


@dataclass(frozen=True)
class VqaRecord:
    record_id: str
    answer_type: str
    question_tokens: tuple[str, ...]
    answer_tokens: tuple[str, ...]


def _source_tokens(record: VqaRecord, source: str) -> tuple[str, ...]:
    return record.answer_tokens if source == "answer" else record.question_tokens


def count_source_tokens(records: list[VqaRecord], spec: VqaSplitSpec) -> Counter:
    """Token frequencies over the spec's source field, restricted to the
    spec's answer type."""
    counts: Counter = Counter()
    for r in records:
        if r.answer_type == spec.answer_type:
            counts.update(_source_tokens(r, spec.token_source))
    return counts


def vqa_token_split(records: list[VqaRecord], spec: VqaSplitSpec,
                    counts: Counter | None = None) -> tuple[list[VqaRecord], list[VqaRecord]]:
    """(base, novel) over the records of the spec's answer type.

    ``counts`` defaults to frequencies over the given records; pass counts
    from the training split to classify a held-out split without leakage.
    """
    if not records:
        raise SplitError("empty record set")
    if counts is None:
        counts = count_source_tokens(records, spec)
    base: list[VqaRecord] = []
    novel: list[VqaRecord] = []
    for r in records:
        if r.answer_type != spec.answer_type:
            continue
        toks = _source_tokens(r, spec.token_source)
        if any(spec.lower <= counts[t] < spec.upper for t in toks):
            novel.append(r)
        else:
            base.append(r)
    return base, novel


def _vqa_tokenize(text: str) -> tuple[str, ...]:
    out = []
    for raw in text.lower().split():
        tok = raw.strip(".,?!\"'():;")
        if tok:
            out.append(tok)
    return tuple(out)


def load_vqa_v2_records(questions_path: str | Path,
                        annotations_path: str | Path) -> list[VqaRecord]:
    """Build records from real VQA v2.0 question/annotation JSON files."""
    questions = json.loads(Path(questions_path).read_text())["questions"]
    annotations = json.loads(Path(annotations_path).read_text())["annotations"]
    q_by_id = {q["question_id"]: q["question"] for q in questions}
    records = []
    for ann in annotations:
        qid = ann["question_id"]
        if qid not in q_by_id:
            raise SplitError(f"annotation {qid} has no matching question")
        answer_tokens: list[str] = []
        for a in ann["answers"]:
            answer_tokens.extend(_vqa_tokenize(a["answer"]))
        records.append(VqaRecord(
            record_id=str(qid),
            answer_type=ann["answer_type"],
            question_tokens=_vqa_tokenize(q_by_id[qid]),
            answer_tokens=tuple(answer_tokens),
        ))
    return records
