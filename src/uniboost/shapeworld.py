"""Synthetic shape-world corpora.

Scenes are two colored shapes drawn on opposite halves of a small grid,
with a per-class segmentation mask, a five-word caption
("<color> <shape> <relation> <color> <shape>"), and one single-token QA
pair. Three corpora come out of one config:

  paired      scenes restricted to base classes — the aligned image-text
              supervision a contrastive stream can use
  image-only  scenes over base + novel classes (captions discarded)
  text-only   captions over base + novel classes (images discarded)

Novel classes therefore exist only in the unimodal corpora, never in a
pair. Scene statistics carry a family-affinity signal: each shape has a
look-alike partner (circle/ring, square/diamond, triangle/cross,
bar/pole), and with the configured probability the second shape in a
scene is the first one's partner. Co-occurrence is what lets unimodal
pretraining place a novel class near its base partner while pair-trained
models never see the novel classes at all.

All pixel values are quantized to float32 at creation so that saved
corpora round-trip bit-exactly through the float32 tensor file format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .encoders import Vocabulary
from .tensorio import load_tensor, save_tensor

__all__ = ["ShapeWorldConfig", "Sample", "CorpusTriple", "SHAPES", "COLORS",
           "RELATIONS", "FAMILIES", "gen_shapeworld", "gen_single_shape_corpus",
           "build_vocabulary", "write_manifest", "ingest_manifest", "ManifestError",
           "shape_stencil", "analytic_area", "class_id"]

SHAPES = ("square", "circle", "triangle", "cross", "bar", "pole", "ring", "diamond")
COLORS = {
    "red": (1.0, 0.15, 0.15),
    "green": (0.15, 1.0, 0.15),
    "blue": (0.15, 0.15, 1.0),
    "yellow": (1.0, 1.0, 0.15),
    "magenta": (1.0, 0.15, 1.0),
    "cyan": (0.15, 1.0, 1.0),
}
RELATIONS = ("above", "below", "left-of", "right-of")
FAMILIES = {
    "circle": "ring", "ring": "circle",
    "square": "diamond", "diamond": "square",
    "triangle": "cross", "cross": "triangle",
    "bar": "pole", "pole": "bar",
}
# Each look-alike family leans toward a signature color. Family members
# thereby share both a visual color profile and a caption color
# distribution, which is the statistical bridge that lets unimodal
# pretraining relate a novel shape to its base partner.
FAMILY_COLOR = {
    "circle": "red", "ring": "red",
    "square": "blue", "diamond": "blue",
    "triangle": "green", "cross": "green",
    "bar": "yellow", "pole": "yellow",
}

STENCIL = 7
_HALF = STENCIL // 2
_OUTER_R = 3.35
_INNER_R = 2.0


def class_id(shape: str) -> int:
    """1-based mask label; 0 is background."""
    return SHAPES.index(shape) + 1


def shape_stencil(shape: str) -> np.ndarray:
    """7x7 boolean footprint of a shape, centered."""
    dr, dc = np.meshgrid(np.arange(-_HALF, _HALF + 1), np.arange(-_HALF, _HALF + 1),
                         indexing="ij")
    dist = np.sqrt(dr ** 2 + dc ** 2)
    if shape == "square":
        return np.ones((STENCIL, STENCIL), dtype=bool)
    if shape == "circle":
        return dist <= _OUTER_R
    if shape == "triangle":
        return np.abs(dc) <= (dr + _HALF) / 2.0
    if shape == "cross":
        return (np.abs(dr) <= 1) | (np.abs(dc) <= 1)
    if shape == "bar":
        return np.abs(dr) <= 1
    if shape == "pole":
        return np.abs(dc) <= 1
    if shape == "ring":
        return (dist <= _OUTER_R) & (dist > _INNER_R)
    if shape == "diamond":
        return (np.abs(dr) + np.abs(dc)) <= _HALF
    raise ValueError(f"unknown shape {shape!r}")


def analytic_area(shape: str) -> float:
    side = float(STENCIL)
    return {
        "square": side * side,
        "circle": np.pi * _OUTER_R ** 2,
        "triangle": side * side / 2.0,
        "cross": 3 * side * 2 - 9,
        "bar": 3 * side,
        "pole": 3 * side,
        "ring": np.pi * (_OUTER_R ** 2 - _INNER_R ** 2),
        "diamond": side * side / 2.0,
    }[shape]


@dataclass(frozen=True)
class ShapeWorldConfig:
    grid_size: int = 16
    shapes: tuple[str, ...] = SHAPES
    colors: tuple[str, ...] = tuple(COLORS)
    samples_per_corpus: int = 2048
    paired_fraction: float = 0.25
    novel_shapes: tuple[str, ...] = ("ring", "diamond")
    family_affinity: float = 0.5
    color_affinity: float = 0.6
    noise: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.grid_size < 2 * (STENCIL + 1):
            raise ValueError(
                f"grid {self.grid_size} too small for two {STENCIL}x{STENCIL} shapes")
        if len(self.shapes) > self.grid_size * self.grid_size:
            raise ValueError("more shape classes than grid cells")
        unknown = set(self.shapes) - set(SHAPES)
        if unknown:
            raise ValueError(f"unknown shapes {sorted(unknown)}")
        if not set(self.novel_shapes) <= set(self.shapes):
            raise ValueError("novel shapes must be a subset of shapes")
        if len(set(self.shapes) - set(self.novel_shapes)) < 2:
            raise ValueError("need at least two base shapes for two-shape scenes")
        if not 0.0 <= self.paired_fraction <= 1.0:
            raise ValueError(f"paired fraction {self.paired_fraction} outside [0, 1]")
        if not 0.0 <= self.family_affinity <= 1.0:
            raise ValueError(f"family affinity {self.family_affinity} outside [0, 1]")
        if not 0.0 <= self.color_affinity <= 1.0:
            raise ValueError(f"color affinity {self.color_affinity} outside [0, 1]")

    @property
    def base_shapes(self) -> tuple[str, ...]:
        return tuple(s for s in self.shapes if s not in self.novel_shapes)

    @property
    def n_paired(self) -> int:
        return round(self.paired_fraction * self.samples_per_corpus)


@dataclass
class Sample:
    sample_id: str
    image: np.ndarray | None       # [H, W, 3] float64 (f32-quantized) or None
    mask: np.ndarray | None        # [H, W] int labels or None
    caption: str = ""
    question: str = ""
    answer: str = ""


@dataclass
class CorpusTriple:
    paired: list[Sample] = field(default_factory=list)
    image_only: list[Sample] = field(default_factory=list)
    text_only: list[Sample] = field(default_factory=list)


def _quantize(img: np.ndarray) -> np.ndarray:
    return img.astype(np.float32).astype(np.float64)


def _render(config: ShapeWorldConfig, rng: np.random.Generator,
            placements: list[tuple[str, str, int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """Draw (shape, color, center_row, center_col) placements onto a fresh
    grid; later placements would win overlaps, but placement geometry keeps
    the shapes disjoint."""
    g = config.grid_size
    img = rng.uniform(0.0, config.noise, size=(g, g, 3))
    mask = np.zeros((g, g), dtype=np.int64)
    for shape, color, cr, cc in placements:
        stencil = shape_stencil(shape)
        rows = slice(cr - _HALF, cr + _HALF + 1)
        cols = slice(cc - _HALF, cc + _HALF + 1)
        region = img[rows, cols]
        region[stencil] = np.asarray(COLORS[color]) * rng.uniform(0.85, 1.0)
        mask[rows, cols][stencil] = class_id(shape)
    return _quantize(np.clip(img, 0.0, 1.0)), mask


def _pick_pair(rng: np.random.Generator, allowed: tuple[str, ...],
               affinity: float) -> tuple[str, str]:
    first = allowed[rng.integers(len(allowed))]
    partner = FAMILIES.get(first)
    if partner in allowed and partner != first and rng.uniform() < affinity:
        return first, partner
    rest = [s for s in allowed if s != first]
    return first, rest[rng.integers(len(rest))]


def _pick_color(rng: np.random.Generator, config: ShapeWorldConfig,
                shape: str, exclude: str | None = None) -> str:
    sig = FAMILY_COLOR.get(shape)
    if (sig in config.colors and sig != exclude
            and rng.uniform() < config.color_affinity):
        return sig
    pool = [c for c in config.colors if c != exclude]
    return pool[rng.integers(len(pool))]


def _make_scene(config: ShapeWorldConfig, rng: np.random.Generator,
                sid: str, allowed: tuple[str, ...]) -> Sample:
    g = config.grid_size
    shape1, shape2 = _pick_pair(rng, allowed, config.family_affinity)
    color1 = _pick_color(rng, config, shape1)
    color2 = _pick_color(rng, config, shape2, exclude=color1)
    relation = RELATIONS[rng.integers(len(RELATIONS))]

    lo = _HALF                       # first valid center on the low side
    hi_half = g // 2 - 1 - _HALF     # last valid center inside the low half
    lo_half = g // 2 + _HALF         # first valid center inside the high half
    hi = g - 1 - _HALF
    span = lambda a, b: int(rng.integers(a, b + 1))
    free_r1, free_c1 = span(lo, hi), span(lo, hi)
    if relation == "above":
        p1 = (span(lo, hi_half), free_c1)
        p2 = (span(lo_half, hi), span(lo, hi))
    elif relation == "below":
        p1 = (span(lo_half, hi), free_c1)
        p2 = (span(lo, hi_half), span(lo, hi))
    elif relation == "left-of":
        p1 = (free_r1, span(lo, hi_half))
        p2 = (span(lo, hi), span(lo_half, hi))
    else:  # right-of
        p1 = (free_r1, span(lo_half, hi))
        p2 = (span(lo, hi), span(lo, hi_half))

    image, mask = _render(config, rng, [(shape1, color1, *p1), (shape2, color2, *p2)])
    caption = f"{color1} {shape1} {relation} {color2} {shape2}"
    if rng.uniform() < 0.5:
        target_shape, target_color = (shape1, color1) if rng.uniform() < 0.5 else (shape2, color2)
        question, answer = f"what color is the {target_shape}", target_color
    else:
        target_shape, target_color = (shape1, color1) if rng.uniform() < 0.5 else (shape2, color2)
        question, answer = f"what shape is the {target_color}", target_shape
    return Sample(sid, image, mask, caption, question, answer)


def gen_shapeworld(config: ShapeWorldConfig) -> CorpusTriple:
    """Generate the paired / image-only / text-only corpus triple."""
    triple = CorpusTriple()
    base = config.base_shapes

    rng = np.random.default_rng([config.seed, 1])
    for i in range(config.n_paired):
        triple.paired.append(_make_scene(config, rng, f"pair{i:05d}", base))

    rng = np.random.default_rng([config.seed, 2])
    for i in range(config.samples_per_corpus):
        s = _make_scene(config, rng, f"img{i:05d}", config.shapes)
        triple.image_only.append(Sample(s.sample_id, s.image, s.mask))

    rng = np.random.default_rng([config.seed, 3])
    for i in range(config.samples_per_corpus):
        s = _make_scene(config, rng, f"txt{i:05d}", config.shapes)
        triple.text_only.append(Sample(s.sample_id, None, None, s.caption,
                                       s.question, s.answer))
    return triple


def gen_single_shape_corpus(config: ShapeWorldConfig, shapes: tuple[str, ...],
                            count: int, seed: int, prefix: str = "eval") -> list[Sample]:
    """Evaluation corpus: one target shape per image, position jittered."""
    g = config.grid_size
    rng = np.random.default_rng([config.seed, 4, seed])
    lo, hi = _HALF, g - 1 - _HALF
    out = []
    for i in range(count):
        shape = shapes[rng.integers(len(shapes))]
        color = _pick_color(rng, config, shape)
        pos = (int(rng.integers(lo, hi + 1)), int(rng.integers(lo, hi + 1)))
        image, mask = _render(config, rng, [(shape, color, *pos)])
        out.append(Sample(f"{prefix}{i:05d}", image, mask, f"{color} {shape}",
                          f"what shape is the {color}", shape))
    return out


def build_vocabulary() -> Vocabulary:
    words = ["background"] + list(COLORS) + list(SHAPES) + list(RELATIONS)
    words += ["what", "color", "shape", "is", "the"]
    return Vocabulary(words)


# ---------------------------------------------------------------------------
# manifest I/O

MANIFEST_FIELDS = ("task-id", "sample-id", "image-path", "mask-path",
                   "caption", "question", "answer")


class ManifestError(ValueError):
    """Malformed manifest or missing payload."""


def write_manifest(directory: str | Path, records: dict[str, list[Sample]]) -> Path:
    """Write per-task samples and their tensor payloads under ``directory``.

    ``records`` maps task-id to samples. Returns the manifest path.
    """
    d = Path(directory)
    (d / "images").mkdir(parents=True, exist_ok=True)
    (d / "masks").mkdir(parents=True, exist_ok=True)
    lines = []
    written: set[str] = set()
    for task_id in sorted(records):
        if "\t" in task_id:
            raise ManifestError(f"task id {task_id!r} contains a tab")
        for s in records[task_id]:
            image_path = mask_path = ""
            if s.image is not None:
                image_path = f"images/{s.sample_id}.ubtn"
                if image_path not in written:
                    save_tensor(d / image_path, s.image)
                    written.add(image_path)
            if s.mask is not None:
                mask_path = f"masks/{s.sample_id}.ubtn"
                if mask_path not in written:
                    save_tensor(d / mask_path, s.mask.astype(np.float64))
                    written.add(mask_path)
            fields = (task_id, s.sample_id, image_path, mask_path,
                      s.caption, s.question, s.answer)
            for name, value in zip(MANIFEST_FIELDS, fields):
                if "\t" in value or "\n" in value:
                    raise ManifestError(
                        f"field {name} of sample {s.sample_id} contains a separator")
            lines.append("\t".join(fields))
    manifest = d / "manifest.tsv"
    manifest.write_text("\n".join(lines) + ("\n" if lines else ""))
    return manifest


def ingest_manifest(manifest_path: str | Path,
                    expected_grid: int | None = None) -> dict[str, list[Sample]]:
    """Load a manifest back into per-task sample lists."""
    path = Path(manifest_path)
    if not path.exists():
        raise ManifestError(f"{path}: no such manifest")
    base = path.parent
    tasks: dict[str, list[Sample]] = {}
    lines = [ln for ln in path.read_text().splitlines()]
    if not any(ln.strip() for ln in lines):
        raise ManifestError(f"{path}: no records")
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != len(MANIFEST_FIELDS):
            raise ManifestError(
                f"{path}:{lineno}: expected {len(MANIFEST_FIELDS)} tab-separated "
                f"fields, got {len(parts)}")
        task_id, sample_id, image_path, mask_path, caption, question, answer = parts
        if not task_id:
            raise ManifestError(f"{path}:{lineno}: empty task-id field")
        if not sample_id:
            raise ManifestError(f"{path}:{lineno}: empty sample-id field")
        image = mask = None
        if image_path:
            full = base / image_path
            if not full.exists():
                raise ManifestError(f"{path}:{lineno}: missing image file {image_path}")
            image = load_tensor(full)
            if image.ndim != 3 or image.shape[2] != 3:
                raise ManifestError(
                    f"{path}:{lineno}: image {image_path} has shape {image.shape}, "
                    f"expected H x W x 3")
            if expected_grid and image.shape[:2] != (expected_grid, expected_grid):
                raise ManifestError(
                    f"{path}:{lineno}: image {image_path} is {image.shape[0]}x"
                    f"{image.shape[1]}, config says {expected_grid}")
        if mask_path:
            full = base / mask_path
            if not full.exists():
                raise ManifestError(f"{path}:{lineno}: missing mask file {mask_path}")
            mask = load_tensor(full).astype(np.int64)
            if expected_grid and mask.shape != (expected_grid, expected_grid):
                raise ManifestError(
                    f"{path}:{lineno}: mask {mask_path} is {mask.shape}, "
                    f"config says {expected_grid}")
        tasks.setdefault(task_id, []).append(
            Sample(sample_id, image, mask, caption, question, answer))
    return tasks
