"""Synthetic shape world: stencils, corpora, leakage, manifests."""

import numpy as np
import pytest

from uniboost.shapeworld import (COLORS, FAMILIES, FAMILY_COLOR, SHAPES,
                                 CorpusTriple, ManifestError, Sample,
                                 ShapeWorldConfig, analytic_area,
                                 build_vocabulary, class_id,
                                 gen_shapeworld, gen_single_shape_corpus,
                                 ingest_manifest, shape_stencil, write_manifest)


def tiny_config(**kw):
    base = dict(samples_per_corpus=24, paired_fraction=0.25, seed=0)
    base.update(kw)
    return ShapeWorldConfig(**base)


# ---------------------------------------------------------------- stencils

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


def test_families_and_signature_colors_are_involutive():
    for a, b in FAMILIES.items():
        assert FAMILIES[b] == a
        assert FAMILY_COLOR[a] == FAMILY_COLOR[b]
        assert FAMILY_COLOR[a] in COLORS


# ---------------------------------------------------------------- corpora

def test_corpus_sizes_follow_config():
    cfg = tiny_config()
    triple = gen_shapeworld(cfg)
    assert len(triple.paired) == cfg.n_paired == 6
    assert len(triple.image_only) == 24
    assert len(triple.text_only) == 24


def test_paired_corpus_never_leaks_novel_classes():
    cfg = tiny_config(samples_per_corpus=64)
    triple = gen_shapeworld(cfg)
    novel_ids = {class_id(s) for s in cfg.novel_shapes}
    for s in triple.paired:
        assert set(np.unique(s.mask)) & novel_ids == set()
        words = set(s.caption.split()) | set(s.answer.split())
        assert words & set(cfg.novel_shapes) == set()


def test_unpaired_corpora_do_contain_novel_classes():
    cfg = tiny_config(samples_per_corpus=64)
    triple = gen_shapeworld(cfg)
    novel_ids = {class_id(s) for s in cfg.novel_shapes}
    seen_img = set()
    for s in triple.image_only:
        seen_img |= set(np.unique(s.mask).tolist())
        assert s.caption == "" and s.question == ""
    assert novel_ids <= seen_img
    seen_words = set()
    for s in triple.text_only:
        assert s.image is None and s.mask is None
        seen_words |= set(s.caption.split())
    assert set(cfg.novel_shapes) <= seen_words


def test_scene_captions_match_mask_geometry():
    cfg = tiny_config(samples_per_corpus=32)
    triple = gen_shapeworld(cfg)
    for s in triple.paired:
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
    cfg = tiny_config(samples_per_corpus=16, noise=0.0)
    triple = gen_shapeworld(cfg)
    s = triple.paired[0]
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
    assert np.array_equal(a.paired[0].image, b.paired[0].image)
    assert np.array_equal(a.image_only[3].mask, b.image_only[3].mask)
    assert a.text_only[2].caption == b.text_only[2].caption
    assert not np.array_equal(a.paired[0].image, c.paired[0].image)


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
    with pytest.raises(ValueError, match="unknown shapes"):
        tiny_config(shapes=("square", "hexagon"))
    with pytest.raises(ValueError, match="subset"):
        tiny_config(shapes=("square", "circle", "bar"), novel_shapes=("ring",))
    with pytest.raises(ValueError, match="two base shapes"):
        tiny_config(shapes=("square", "circle", "ring"),
                    novel_shapes=("circle", "ring"))
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
    triple = gen_shapeworld(tiny_config(samples_per_corpus=32))
    for s in triple.paired + triple.text_only:
        for text in (s.caption, s.question, s.answer):
            if text:
                assert vocab.unk_id not in vocab.encode(text), text


# ---------------------------------------------------------------- manifests

def test_manifest_round_trip(tmp_path):
    cfg = tiny_config()
    triple = gen_shapeworld(cfg)
    records = {"seg": triple.paired[:3], "txt": triple.text_only[:2]}
    path = write_manifest(tmp_path, records)
    assert path.name == "manifest.tsv"
    back = ingest_manifest(path, expected_grid=cfg.grid_size)
    assert set(back) == {"seg", "txt"}
    for orig, loaded in zip(triple.paired[:3], back["seg"]):
        assert loaded.sample_id == orig.sample_id
        assert np.array_equal(loaded.image, orig.image)
        assert np.array_equal(loaded.mask, orig.mask)
        assert loaded.caption == orig.caption
    for orig, loaded in zip(triple.text_only[:2], back["txt"]):
        assert loaded.image is None and loaded.mask is None
        assert loaded.answer == orig.answer


def test_manifest_errors_carry_line_numbers(tmp_path):
    cfg = tiny_config()
    triple = gen_shapeworld(cfg)
    path = write_manifest(tmp_path, {"seg": triple.paired[:2]})

    lines = path.read_text().splitlines()
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "manifest.tsv").write_text(lines[0].replace("\t", " ", 1) + "\n")
    with pytest.raises(ManifestError, match="manifest.tsv:1: expected 7"):
        ingest_manifest(bad / "manifest.tsv")

    (bad / "manifest.tsv").write_text("\t".join([""] + lines[0].split("\t")[1:]) + "\n")
    with pytest.raises(ManifestError, match="empty task-id"):
        ingest_manifest(bad / "manifest.tsv")

    missing = lines[0].split("\t")
    missing[2] = "images/ghost.ubtn"
    (bad / "manifest.tsv").write_text("\t".join(missing) + "\n")
    with pytest.raises(ManifestError, match="missing image file"):
        ingest_manifest(bad / "manifest.tsv")

    with pytest.raises(ManifestError, match="no such manifest"):
        ingest_manifest(tmp_path / "nowhere.tsv")
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "manifest.tsv").write_text("\n")
    with pytest.raises(ManifestError, match="no records"):
        ingest_manifest(empty / "manifest.tsv")


def test_manifest_grid_check(tmp_path):
    cfg = tiny_config()
    triple = gen_shapeworld(cfg)
    path = write_manifest(tmp_path, {"seg": triple.paired[:1]})
    with pytest.raises(ManifestError, match="config says 32"):
        ingest_manifest(path, expected_grid=32)


def test_manifest_rejects_separator_in_fields(tmp_path):
    sample = Sample("s0", None, None, caption="has\ttab")
    with pytest.raises(ManifestError, match="contains a separator"):
        write_manifest(tmp_path, {"t": [sample]})
