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

Each corpus comes from its own RNG stream, so ``gen_shapeworld`` can build
any one of them alone, bit for bit as it comes out with the others.
Text-only scenes make every RNG draw an image would but paint no pixels.

Images are stored as float32 and masks as uint8, the widths their values
hold: every pinned result was measured on corpora of that precision. A
batch is widened to float64 once, where it becomes a ``Tensor``, and no
stage computes on an image before that. Every generated array is
read-only. Each shape's stencil is built once per process, on first use,
and shared read-only by every render after it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .encoders import Vocabulary

__all__ = ["ShapeWorldConfig", "Sample", "SHAPES", "COLORS", "CORPORA",
           "RELATIONS", "FAMILIES", "gen_shapeworld", "gen_single_shape_corpus",
           "build_vocabulary", "shape_stencil", "class_id"]

SHAPES = ("square", "circle", "triangle", "cross", "bar", "pole", "ring", "diamond")
COLORS = {
    "red": (1.0, 0.15, 0.15),
    "green": (0.15, 1.0, 0.15),
    "blue": (0.15, 0.15, 1.0),
    "yellow": (1.0, 1.0, 0.15),
    "magenta": (1.0, 0.15, 1.0),
    "cyan": (0.15, 1.0, 1.0),
}
_RGB = {name: np.asarray(rgb) for name, rgb in COLORS.items()}  # built once, for _render
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

NOISE = 0.05  # background pixels are uniform in [0, NOISE) per channel
STENCIL = 7
_HALF = STENCIL // 2
_OUTER_R = 3.35
_INNER_R = 2.0


_CLASSES = ("background",) + SHAPES


def class_id(name: str) -> int:
    """Mask label of a class: 0 for ``background``, 1-based for a shape."""
    return _CLASSES.index(name)


@functools.cache
def shape_stencil(shape: str) -> np.ndarray:
    """7x7 boolean footprint of a shape, centered. Cached and read-only."""
    dr, dc = np.meshgrid(np.arange(-_HALF, _HALF + 1), np.arange(-_HALF, _HALF + 1),
                         indexing="ij")
    dist = np.sqrt(dr ** 2 + dc ** 2)
    if shape == "square":
        stencil = np.ones((STENCIL, STENCIL), dtype=bool)
    elif shape == "circle":
        stencil = dist <= _OUTER_R
    elif shape == "triangle":
        stencil = np.abs(dc) <= (dr + _HALF) / 2.0
    elif shape == "cross":
        stencil = (np.abs(dr) <= 1) | (np.abs(dc) <= 1)
    elif shape == "bar":
        stencil = np.abs(dr) <= 1
    elif shape == "pole":
        stencil = np.abs(dc) <= 1
    elif shape == "ring":
        stencil = (dist <= _OUTER_R) & (dist > _INNER_R)
    elif shape == "diamond":
        stencil = (np.abs(dr) + np.abs(dc)) <= _HALF
    else:
        raise ValueError(f"unknown shape {shape!r}")
    stencil.flags.writeable = False
    return stencil


@dataclass(frozen=True)
class ShapeWorldConfig:
    grid_size: int = 16
    samples_per_corpus: int = 2048
    paired_fraction: float = 0.25
    novel_shapes: tuple[str, ...] = ("ring", "diamond")
    family_affinity: float = 0.5
    color_affinity: float = 0.6
    seed: int = 0

    def __post_init__(self):
        if self.grid_size < 2 * (STENCIL + 1):
            raise ValueError(
                f"grid {self.grid_size} too small for two {STENCIL}x{STENCIL} shapes")
        if not set(self.novel_shapes) <= set(SHAPES):
            raise ValueError("novel shapes must be a subset of SHAPES")
        if len(set(self.novel_shapes)) != len(self.novel_shapes):
            raise ValueError(f"novel shapes {self.novel_shapes} name a shape twice")
        if len(set(SHAPES) - set(self.novel_shapes)) < 2:
            raise ValueError("need at least two base shapes for two-shape scenes")
        if not 0.0 <= self.paired_fraction <= 1.0:
            raise ValueError(f"paired fraction {self.paired_fraction} outside [0, 1]")
        if not 0.0 <= self.family_affinity <= 1.0:
            raise ValueError(f"family affinity {self.family_affinity} outside [0, 1]")
        if not 0.0 <= self.color_affinity <= 1.0:
            raise ValueError(f"color affinity {self.color_affinity} outside [0, 1]")

    @property
    def base_shapes(self) -> tuple[str, ...]:
        return tuple(s for s in SHAPES if s not in self.novel_shapes)

    @property
    def n_paired(self) -> int:
        return round(self.paired_fraction * self.samples_per_corpus)


@dataclass
class Sample:
    sample_id: str
    image: np.ndarray | None = None  # [H, W, 3] float32
    mask: np.ndarray | None = None   # [H, W] uint8 labels
    caption: str = ""
    question: str = ""
    answer: str = ""


def _render(config: ShapeWorldConfig, rng: np.random.Generator,
            placements: list[tuple[str, str, int, int]],
            paint: bool = True) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Draw (shape, color, center_row, center_col) placements onto a fresh
    grid; later placements would win overlaps, but placement geometry keeps
    the shapes disjoint. Without ``paint``, make the same draws and return
    no arrays."""
    g = config.grid_size
    img = rng.uniform(0.0, NOISE, size=(g, g, 3))
    shades = [rng.uniform(0.85, 1.0) for _ in placements]
    if not paint:
        return None, None
    mask = np.zeros((g, g), dtype=np.uint8)
    for (shape, color, cr, cc), shade in zip(placements, shades):
        stencil = shape_stencil(shape)
        rows = slice(cr - _HALF, cr + _HALF + 1)
        cols = slice(cc - _HALF, cc + _HALF + 1)
        region = img[rows, cols]
        region[stencil] = _RGB[color] * shade
        mask[rows, cols][stencil] = class_id(shape)
    img = np.clip(img, 0.0, 1.0).astype(np.float32)
    img.flags.writeable = mask.flags.writeable = False
    return img, mask


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
    sig = FAMILY_COLOR[shape]
    if sig != exclude and rng.uniform() < config.color_affinity:
        return sig
    pool = [c for c in COLORS if c != exclude]
    return pool[rng.integers(len(pool))]


def _make_scene(config: ShapeWorldConfig, rng: np.random.Generator, sid: str,
                allowed: tuple[str, ...], kept: tuple[str, ...]) -> Sample:
    """One two-shape scene that keeps only the ``kept`` fields; its pixels
    are painted only if it keeps the image."""
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

    image, mask = _render(config, rng, [(shape1, color1, *p1), (shape2, color2, *p2)],
                          paint="image" in kept)
    caption = f"{color1} {shape1} {relation} {color2} {shape2}"
    if rng.uniform() < 0.5:
        target_shape, target_color = (shape1, color1) if rng.uniform() < 0.5 else (shape2, color2)
        question, answer = f"what color is the {target_shape}", target_color
    else:
        target_shape, target_color = (shape1, color1) if rng.uniform() < 0.5 else (shape2, color2)
        question, answer = f"what shape is the {target_color}", target_shape
    fields = dict(image=image, mask=mask, caption=caption, question=question, answer=answer)
    return Sample(sid, **{f: fields[f] for f in kept})


# Each corpus: its RNG stream, sample-id prefix, size (a config attribute),
# whether novel shapes may appear, and the fields it keeps.
_CORPORA = {
    "paired": (1, "pair", "n_paired", False, ("image", "mask", "caption", "question", "answer")),
    "image-only": (2, "img", "samples_per_corpus", True, ("image", "mask")),
    "text-only": (3, "txt", "samples_per_corpus", True, ("caption", "question", "answer")),
}
CORPORA = tuple(_CORPORA)


def gen_shapeworld(config: ShapeWorldConfig,
                   names: tuple[str, ...] = CORPORA) -> dict[str, list[Sample]]:
    """The named corpora (default all of ``CORPORA``), by name."""
    out = {}
    for name in names:
        stream, prefix, size, novel, kept = _CORPORA[name]
        rng = np.random.default_rng([config.seed, stream])
        shapes = SHAPES if novel else config.base_shapes
        out[name] = [_make_scene(config, rng, f"{prefix}{i:05d}", shapes, kept)
                     for i in range(getattr(config, size))]
    return out


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
