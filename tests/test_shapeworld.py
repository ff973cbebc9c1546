"""Synthetic shape world: stencils, corpora, leakage, vocabulary."""

import hashlib

import numpy as np
import pytest

from uniboost import shapeworld
from uniboost.shapeworld import (COLORS, CORPORA, FAMILIES, FAMILY_COLOR, SHAPES,
                                 ShapeWorldConfig, build_vocabulary, class_id,
                                 gen_shapeworld, gen_single_shape_corpus,
                                 shape_stencil)


def tiny_config(**kw):
    base = dict(samples_per_corpus=24, paired_fraction=0.25, seed=0)
    base.update(kw)
    return ShapeWorldConfig(**base)


# ---------------------------------------------------------------- stencils

def analytic_area(shape: str) -> float:
    """The continuous area of ``shape`` that its stencil approximates."""
    side = float(shapeworld.STENCIL)
    outer, inner = shapeworld._OUTER_R, shapeworld._INNER_R
    return {
        "square": side * side,
        "circle": np.pi * outer ** 2,
        "triangle": side * side / 2.0,
        "cross": 3 * side * 2 - 9,
        "bar": 3 * side,
        "pole": 3 * side,
        "ring": np.pi * (outer ** 2 - inner ** 2),
        "diamond": side * side / 2.0,
    }[shape]


def test_stencil_areas_match_analytic_values():
    for shape in SHAPES:
        pixels = shape_stencil(shape).sum()
        want = analytic_area(shape)
        assert abs(pixels - want) / want < 0.10, (shape, pixels, want)


def test_stencil_exact_counts_for_flat_shapes():
    assert shape_stencil("square").sum() == 49
    assert shape_stencil("bar").sum() == 21
    assert shape_stencil("pole").sum() == 21
    assert shape_stencil("cross").sum() == 33
    assert shape_stencil("diamond").sum() == 25
    with pytest.raises(ValueError, match="unknown shape"):
        shape_stencil("blob")
    with pytest.raises(ValueError, match="read-only"):
        shape_stencil("square")[0, 0] = False


def test_ring_is_circle_minus_inner_disk():
    circle = shape_stencil("circle")
    ring = shape_stencil("ring")
    assert (ring & ~circle).sum() == 0
    assert ring.sum() < circle.sum()
    assert not ring[3, 3]  # hollow center


def test_class_ids_are_one_based_positions():
    assert class_id("square") == 1
    assert class_id("diamond") == 8
    assert sorted(class_id(s) for s in SHAPES) == list(range(1, 9))
    assert class_id("background") == 0


def test_families_and_signature_colors_are_involutive():
    for a, b in FAMILIES.items():
        assert FAMILIES[b] == a
        assert FAMILY_COLOR[a] == FAMILY_COLOR[b]
        assert FAMILY_COLOR[a] in COLORS


# ---------------------------------------------------------------- corpora

def test_corpus_sizes_follow_config():
    cfg = tiny_config()
    corpora = gen_shapeworld(cfg)
    assert len(corpora["paired"]) == cfg.n_paired == 6
    assert len(corpora["image-only"]) == 24
    assert len(corpora["text-only"]) == 24


@pytest.mark.parametrize("cfg", [ShapeWorldConfig(), tiny_config()], ids=["default", "tiny"])
def test_corpora_hold_what_their_stages_read(cfg):
    """Each corpus's samples carry the fields its stages read, each text
    field has one token count per corpus (batches stack the token ids), and
    each paired caption's second word is the shape that supervised
    pretraining and the cls head take as its label."""
    read = {"paired": ("image", "mask", "caption", "question", "answer"),
            "image-only": ("image",),
            "text-only": ("caption",)}
    corpora = gen_shapeworld(cfg)
    assert set(corpora) == set(read)
    g = cfg.grid_size
    for name, fields in read.items():
        samples = corpora[name]
        assert samples, name
        for f in fields:
            values = [getattr(s, f) for s in samples]
            if f == "image":
                assert all(v is not None and v.shape == (g, g, 3) for v in values), name
            elif f == "mask":
                assert all(v is not None and v.shape == (g, g) for v in values), name
            else:
                counts = {len(v.split()) for v in values}
                assert len(counts) == 1 and 0 not in counts, (name, f, counts)
    assert all(s.caption.split()[1] in SHAPES for s in corpora["paired"])


def test_paired_corpus_never_leaks_novel_classes():
    cfg = tiny_config(samples_per_corpus=64)
    corpora = gen_shapeworld(cfg)
    novel_ids = {class_id(s) for s in cfg.novel_shapes}
    for s in corpora["paired"]:
        assert set(np.unique(s.mask)) & novel_ids == set()
        words = set(s.caption.split()) | set(s.answer.split())
        assert words & set(cfg.novel_shapes) == set()


def test_unpaired_corpora_do_contain_novel_classes():
    cfg = tiny_config(samples_per_corpus=64)
    corpora = gen_shapeworld(cfg)
    novel_ids = {class_id(s) for s in cfg.novel_shapes}
    seen_img = set()
    for s in corpora["image-only"]:
        seen_img |= set(np.unique(s.mask).tolist())
        assert s.caption == "" and s.question == ""
    assert novel_ids <= seen_img
    seen_words = set()
    for s in corpora["text-only"]:
        assert s.image is None and s.mask is None
        seen_words |= set(s.caption.split())
    assert set(cfg.novel_shapes) <= seen_words


def test_scene_captions_match_mask_geometry():
    cfg = tiny_config(samples_per_corpus=32)
    corpora = gen_shapeworld(cfg)
    for s in corpora["paired"]:
        color1, shape1, relation, color2, shape2 = s.caption.split()
        id1, id2 = class_id(shape1), class_id(shape2)
        r1, c1 = [x.mean() for x in np.nonzero(s.mask == id1)]
        r2, c2 = [x.mean() for x in np.nonzero(s.mask == id2)]
        if relation == "above":
            assert r1 < r2
        elif relation == "below":
            assert r1 > r2
        elif relation == "left-of":
            assert c1 < c2
        else:
            assert c1 > c2
        assert color1 != color2


def test_scene_pixels_show_the_named_colors():
    cfg = tiny_config(samples_per_corpus=16)
    corpora = gen_shapeworld(cfg)
    s = corpora["paired"][0]
    color1, shape1, _, _, _ = s.caption.split()
    inside = s.image[s.mask == class_id(shape1)]
    want = np.asarray(COLORS[color1])
    # shading multiplies by a factor in [0.85, 1]; direction is preserved
    ratios = inside / want
    assert (ratios >= 0.84).all() and (ratios <= 1.0 + 1e-6).all()


def test_generation_is_bit_deterministic():
    a = gen_shapeworld(tiny_config(seed=5))
    b = gen_shapeworld(tiny_config(seed=5))
    c = gen_shapeworld(tiny_config(seed=6))
    assert np.array_equal(a["paired"][0].image, b["paired"][0].image)
    assert np.array_equal(a["image-only"][3].mask, b["image-only"][3].mask)
    assert a["text-only"][2].caption == b["text-only"][2].caption
    assert not np.array_equal(a["paired"][0].image, c["paired"][0].image)


def _five_corpora(cfg):
    """The three training corpora and the two eval corpora, by name."""
    corpora = gen_shapeworld(cfg)
    corpora["base-eval"] = gen_single_shape_corpus(cfg, cfg.base_shapes, 16, seed=11,
                                                   prefix="base-eval")
    corpora["novel-eval"] = gen_single_shape_corpus(cfg, cfg.novel_shapes, 16, seed=13,
                                                    prefix="novel-eval")
    return corpora


def test_generated_corpora_do_not_drift():
    """Every id, pixel, label and string the generator emits for a small
    config, pinned: a faster render must draw the same bits. Each image is
    hashed widened to float64 and each mask to int64, the widths the pin was
    taken at, so the pin holds every value whatever width stores it."""
    corpora = _five_corpora(tiny_config(samples_per_corpus=32))
    samples = [s for corpus in corpora.values() for s in corpus]
    h = hashlib.sha256()
    for s in samples:
        h.update(s.sample_id.encode() + b"\0")
        for arr, wide in ((s.image, np.float64), (s.mask, np.int64)):
            if arr is not None:
                arr = arr.astype(wide)
            h.update(b"none\0" if arr is None else
                     f"{arr.dtype.str}{arr.shape}".encode() + arr.tobytes())
        for text in (s.caption, s.question, s.answer):
            h.update(text.encode() + b"\0")
    assert len(samples) == 104
    assert h.hexdigest() == \
        "95d18b7a6224a6def867a224693190dbeea829f6baae1120fa331d8fe29055dd"


def test_corpora_store_float32_images_and_uint8_masks():
    """The storage contract of all five corpora: float32 pixels, uint8
    labels, read-only and C-contiguous; text-only scenes hold no arrays."""
    corpora = _five_corpora(tiny_config())
    assert all(s.image is None and s.mask is None for s in corpora.pop("text-only"))
    for name, samples in corpora.items():
        assert samples, name
        for s in samples:
            for arr, dtype in ((s.image, np.float32), (s.mask, np.uint8)):
                assert arr.dtype == dtype, (name, s.sample_id)
                assert not arr.flags.writeable and arr.flags.c_contiguous, (name, s.sample_id)


def _same_samples(a, b):
    assert [s.sample_id for s in a] == [s.sample_id for s in b]
    for x, y in zip(a, b):
        for f in ("image", "mask"):
            u, v = getattr(x, f), getattr(y, f)
            assert (u is None and v is None) or (u.dtype == v.dtype
                                                 and np.array_equal(u, v)), (x.sample_id, f)
        assert (x.caption, x.question, x.answer) == (y.caption, y.question, y.answer)


@pytest.mark.parametrize("cfg", [
    ShapeWorldConfig(),
    ShapeWorldConfig(family_affinity=0.9, color_affinity=0.2, seed=3)],
    ids=["default", "other-affinities-seed3"])
def test_each_corpus_generated_alone_equals_its_part_of_the_full_set(cfg):
    full = gen_shapeworld(cfg)
    assert list(full) == list(CORPORA) == ["paired", "image-only", "text-only"]
    for name in CORPORA:
        alone = gen_shapeworld(cfg, (name,))
        assert list(alone) == [name]
        _same_samples(alone[name], full[name])


def test_text_only_scenes_paint_no_pixels(monkeypatch):
    stencils = []

    def recording(shape):
        stencils.append(shape)
        return shape_stencil(shape)

    monkeypatch.setattr(shapeworld, "shape_stencil", recording)
    text = gen_shapeworld(tiny_config(), ("text-only",))["text-only"]
    assert len(text) == 24 and stencils == []
    gen_shapeworld(tiny_config(), ("image-only",))
    assert len(stencils) == 2 * 24


def test_generated_arrays_are_read_only():
    corpora = gen_shapeworld(tiny_config())
    eval_corpus = gen_single_shape_corpus(tiny_config(), ("ring",), 2, seed=0)
    for s in corpora["paired"][:2] + corpora["image-only"][:2] + eval_corpus:
        for arr in (s.image, s.mask):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 1


def test_color_affinity_controls_signature_colors():
    always = tiny_config(color_affinity=1.0, samples_per_corpus=16)
    samples = gen_single_shape_corpus(always, ("circle",), 20, seed=1)
    assert all(s.caption == "red circle" for s in samples)

    never = tiny_config(color_affinity=0.0, samples_per_corpus=16)
    samples = gen_single_shape_corpus(never, ("circle",), 60, seed=1)
    seen = {s.caption.split()[0] for s in samples}
    assert len(seen) > 3  # uniform over the palette, not pinned to red


def test_config_validation():
    with pytest.raises(ValueError, match="too small"):
        ShapeWorldConfig(grid_size=8)
    with pytest.raises(ValueError, match="subset"):
        tiny_config(novel_shapes=("ring", "hexagon"))
    with pytest.raises(ValueError, match="name a shape twice"):
        tiny_config(novel_shapes=("ring", "ring"))
    with pytest.raises(ValueError, match="two base shapes"):
        tiny_config(novel_shapes=SHAPES[1:])
    with pytest.raises(ValueError, match="paired fraction"):
        tiny_config(paired_fraction=1.5)
    with pytest.raises(ValueError, match="color affinity"):
        tiny_config(color_affinity=-0.2)


# ---------------------------------------------------------------- eval corpus

def test_single_shape_corpus_masks_one_class():
    cfg = tiny_config()
    samples = gen_single_shape_corpus(cfg, ("ring", "diamond"), 12, seed=3)
    assert len(samples) == 12
    allowed = {0, class_id("ring"), class_id("diamond")}
    for s in samples:
        labels = set(np.unique(s.mask).tolist())
        assert labels <= allowed
        assert len(labels) == 2  # background plus exactly one shape
        assert s.answer in ("ring", "diamond")
        assert s.caption.split()[1] == s.answer


# ---------------------------------------------------------------- vocabulary

def test_vocabulary_covers_all_generated_text():
    vocab = build_vocabulary()
    corpora = gen_shapeworld(tiny_config(samples_per_corpus=32))
    for s in corpora["paired"] + corpora["text-only"]:
        for text in (s.caption, s.question, s.answer):
            if text:
                assert vocab.unk_id not in vocab.encode(text), text

