"""Fusion neck: masks, routes, segmentation logits, greedy decoding."""

import numpy as np
import pytest

from uniboost.neck import (Neck, NeckConfig, RouteInputError, RouteKind,
                           SEG_TEMPERATURE, attention_mask, causal_mask,
                           fuse_concat, image_sequence, lm_generate, seg_logits,
                           text_sequence, upsample_patch_grid)
from uniboost.tensor import Tensor


def small_neck(**kw):
    base = dict(encoder_width=8, text_width=8, layer_set=(1, 2),
                common_width=8, fusion_layers=2, fusion_heads=2, vocab_size=12)
    base.update(kw)
    return Neck(NeckConfig(**base), seed=0)


def rand_seq(rng, n, width=8, kind="image"):
    data = Tensor(rng.normal(size=(1, n, width)))
    return image_sequence(data) if kind == "image" else text_sequence(data)


# ---------------------------------------------------------------- masks

def test_attention_mask_example_rows():
    allow = attention_mask(n_image=2, n_text=3)
    want = np.array([
        [1, 1, 0, 0, 0],   # image tokens see images only
        [1, 1, 0, 0, 0],
        [1, 1, 1, 0, 0],   # text 0: images + itself
        [1, 1, 1, 1, 0],   # text 1: images + text <= 1
        [1, 1, 1, 1, 1],
    ], dtype=bool)
    assert np.array_equal(allow, want)


def test_attention_mask_matches_rule_for_all_small_shapes():
    for n_img in range(1, 6):
        for n_txt in range(1, 7 - n_img):
            allow = attention_mask(n_img, n_txt)
            n = n_img + n_txt
            for q in range(n):
                for k in range(n):
                    if q < n_img:
                        want = k < n_img
                    else:
                        want = k < n_img or k <= q
                    assert allow[q, k] == want, (n_img, n_txt, q, k)


def test_causal_mask_is_lower_triangular():
    m = causal_mask(4)
    assert np.array_equal(m, np.tril(np.ones((4, 4), dtype=bool)))


def test_generative_causality_exhaustive_small_sequences():
    """Perturbing text token j must leave the fused outputs of all earlier
    positions (every image token and text tokens < j) bit-identical, for
    every split of up to six tokens."""
    neck = small_neck()
    rng = np.random.default_rng(0)
    for n_img in range(1, 6):
        for n_txt in range(1, 7 - n_img):
            img = rand_seq(rng, n_img, kind="image")
            txt_data = rng.normal(size=(1, n_txt, 8))
            base = neck.route_forward(
                RouteKind.DEEP_FUSION, img,
                text_sequence(Tensor(txt_data.copy())))
            for j in range(n_txt):
                bumped = txt_data.copy()
                bumped[0, j] += rng.normal(size=8)
                out = neck.route_forward(
                    RouteKind.DEEP_FUSION, img,
                    text_sequence(Tensor(bumped)))
                cut = n_img + j
                assert np.array_equal(base.data.values[:, :cut],
                                      out.data.values[:, :cut]), (n_img, n_txt, j)
                assert not np.array_equal(base.data.values[:, cut],
                                          out.data.values[:, cut])


# ---------------------------------------------------------------- fuse/split

def test_fuse_then_split_round_trips():
    rng = np.random.default_rng(1)
    img = rand_seq(rng, 3, kind="image")
    txt = rand_seq(rng, 2, kind="text")
    fused = fuse_concat(img, txt)
    assert fused.n_tokens == 5
    assert np.array_equal(fused.data.values[:, :3], img.data.values)
    assert np.array_equal(fused.data.values[:, 3:], txt.data.values)


def test_fuse_width_mismatch_and_empty_blocks():
    rng = np.random.default_rng(2)
    img = rand_seq(rng, 2, width=8, kind="image")
    wide = rand_seq(rng, 2, width=6, kind="text")
    with pytest.raises(ValueError, match="width mismatch"):
        fuse_concat(img, wide)
    empty_txt = text_sequence(Tensor(np.zeros((1, 0, 8))))
    assert np.array_equal(fuse_concat(img, empty_txt).data.values, img.data.values)


# ---------------------------------------------------------------- routes

def test_route_purity_errors():
    neck = small_neck()
    rng = np.random.default_rng(3)
    img = rand_seq(rng, 2, kind="image")
    txt = rand_seq(rng, 2, kind="text")
    with pytest.raises(RouteInputError, match="accepts image only"):
        neck.route_forward(RouteKind.IMAGE_ONLY, img, txt)
    with pytest.raises(RouteInputError, match="accepts text only"):
        neck.route_forward(RouteKind.TEXT_ONLY, img, txt)
    with pytest.raises(RouteInputError, match="requires an image"):
        neck.route_forward(RouteKind.IMAGE_ONLY)
    with pytest.raises(RouteInputError, match="requires a text"):
        neck.route_forward(RouteKind.TEXT_ONLY)
    for route in (RouteKind.LANGUAGE_GUIDED_VISION, RouteKind.IMAGE_TO_TEXT_GEN,
                  RouteKind.DEEP_FUSION):
        with pytest.raises(RouteInputError, match="requires both"):
            neck.route_forward(route, image_seq=img)
        with pytest.raises(RouteInputError, match="requires both"):
            neck.route_forward(route, text_seq=txt)


def test_unimodal_routes_pool_the_fused_sequence():
    neck = small_neck()
    rng = np.random.default_rng(4)
    img = rand_seq(rng, 3, kind="image")
    pooled = neck.route_forward(RouteKind.IMAGE_ONLY, image_seq=img)
    want = neck.fusion_forward(img.data).values.mean(axis=1)
    assert pooled.shape == (1, 8)
    assert np.allclose(pooled.values, want, atol=1e-12)


def test_language_guided_route_outputs():
    neck = small_neck()
    rng = np.random.default_rng(5)
    img = rand_seq(rng, 4, kind="image")
    txt = rand_seq(rng, 3, kind="text")
    patch_emb, class_emb = neck.route_forward(
        RouteKind.LANGUAGE_GUIDED_VISION, img, txt)
    assert patch_emb.shape == (1, 4, 8)
    assert np.allclose(class_emb.values, txt.data.values.mean(axis=1), atol=1e-12)


def test_projection_validation():
    neck = small_neck()
    rng = np.random.default_rng(6)
    feats = [Tensor(rng.normal(size=(1, 2, 8)))]
    with pytest.raises(ValueError, match="expected 2 image feature layers"):
        neck.project_image(feats)
    bad = [Tensor(rng.normal(size=(1, 2, 6)))] * 2
    with pytest.raises(ValueError, match="image feature width"):
        neck.project_image(bad)
    with pytest.raises(ValueError, match="text feature width"):
        neck.project_text(Tensor(rng.normal(size=(1, 2, 6))))


def test_neck_config_validation():
    with pytest.raises(ValueError, match="layer_set"):
        NeckConfig(layer_set=())
    with pytest.raises(ValueError, match="not divisible"):
        NeckConfig(common_width=10, fusion_heads=4)


# ---------------------------------------------------------------- seg head

def test_seg_logits_cosine_oracle():
    rng = np.random.default_rng(7)
    patches = rng.normal(size=(2, 5, 8))
    classes = rng.normal(size=(3, 8))
    got = seg_logits(Tensor(patches), Tensor(classes), temperature=0.25).values
    p = patches / np.linalg.norm(patches, axis=-1, keepdims=True)
    c = classes / np.linalg.norm(classes, axis=-1, keepdims=True)
    assert np.allclose(got, (p @ c.T) / 0.25, atol=1e-12)
    assert SEG_TEMPERATURE == 0.07


def test_seg_argmax_invariant_under_positive_class_rescaling():
    rng = np.random.default_rng(8)
    patches = Tensor(rng.normal(size=(6, 8)))
    classes = rng.normal(size=(4, 8))
    base = np.argmax(seg_logits(patches, Tensor(classes)).values, axis=-1)
    scales = rng.uniform(0.05, 20.0, size=(4, 1))
    scaled = np.argmax(seg_logits(patches, Tensor(classes * scales)).values, axis=-1)
    assert np.array_equal(base, scaled)


def test_seg_logits_validation():
    p = Tensor(np.ones((2, 8)))
    c = Tensor(np.ones((3, 8)))
    with pytest.raises(ValueError, match="temperature"):
        seg_logits(p, c, temperature=0.0)
    with pytest.raises(ValueError, match="at least one class"):
        seg_logits(p, Tensor(np.ones((0, 8))))
    with pytest.raises(ValueError, match="width mismatch"):
        seg_logits(p, Tensor(np.ones((3, 6))))


def test_upsample_patch_grid_nearest():
    per_patch = np.array([1.0, 2.0, 3.0, 4.0])
    up = upsample_patch_grid(per_patch, height=4, width=4, patch_size=2)
    want = np.array([[1, 1, 2, 2],
                     [1, 1, 2, 2],
                     [3, 3, 4, 4],
                     [3, 3, 4, 4]], dtype=float)
    assert np.array_equal(up, want)
    batched = upsample_patch_grid(np.stack([per_patch, per_patch + 10]), 4, 4, 2)
    assert batched.shape == (2, 4, 4)
    assert np.array_equal(batched[1], want + 10)


# ---------------------------------------------------------------- decoding

def _decoder_fixture(seed=9):
    neck = small_neck()
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(neck.config.vocab_size, 8))
    img = rand_seq(rng, 3, kind="image")

    def embed_text(ids):
        return neck.project_text(Tensor(table[np.asarray(ids)][None]))

    return neck, img, embed_text


def test_lm_generate_stops_at_eos():
    neck, img, embed_text = _decoder_fixture()
    neck.lm_head.weight.values[:] = 0.0
    neck.lm_head.bias.values[:] = 0.0
    neck.lm_head.bias.values[2] = 10.0
    out = lm_generate(neck, img, prefix_ids=[3], embed_text=embed_text,
                      mask_id=1, eos_id=2, vocab_len=12, max_len=8)
    assert out == []


def test_lm_generate_caps_at_max_len():
    neck, img, embed_text = _decoder_fixture()
    neck.lm_head.weight.values[:] = 0.0
    neck.lm_head.bias.values[:] = 0.0
    neck.lm_head.bias.values[5] = 10.0
    out = lm_generate(neck, img, prefix_ids=[3], embed_text=embed_text,
                      mask_id=1, eos_id=2, vocab_len=12, max_len=4)
    assert out == [5, 5, 5, 5]


def test_lm_generate_ties_break_to_lowest_id():
    neck, img, embed_text = _decoder_fixture()
    neck.lm_head.weight.values[:] = 0.0
    neck.lm_head.bias.values[:] = 0.0
    out = lm_generate(neck, img, prefix_ids=[3], embed_text=embed_text,
                      mask_id=1, eos_id=2, vocab_len=12, max_len=3)
    assert out == [0, 0, 0]


def test_lm_generate_is_deterministic():
    neck, img, embed_text = _decoder_fixture()
    a = lm_generate(neck, img, [3, 4], embed_text, mask_id=1, eos_id=2,
                    vocab_len=12, max_len=6)
    b = lm_generate(neck, img, [3, 4], embed_text, mask_id=1, eos_id=2,
                    vocab_len=12, max_len=6)
    assert a == b
    assert all(0 <= t < neck.config.vocab_size for t in a)


def test_lm_generate_validation():
    neck, img, embed_text = _decoder_fixture()
    with pytest.raises(ValueError, match="max_len"):
        lm_generate(neck, img, [3], embed_text, mask_id=1, eos_id=2,
                    vocab_len=12, max_len=0)
    with pytest.raises(ValueError, match="EOS"):
        lm_generate(neck, img, [3], embed_text, mask_id=1, eos_id=8,
                    vocab_len=8, max_len=2)


def test_lm_generate_never_emits_an_id_past_the_vocabulary():
    neck, img, embed_text = _decoder_fixture()
    neck.lm_head.weight.values[:] = 0.0
    neck.lm_head.bias.values[:] = 0.0
    neck.lm_head.bias.values[9] = 10.0
    neck.lm_head.bias.values[4] = 5.0
    out = lm_generate(neck, img, prefix_ids=[3], embed_text=embed_text,
                      mask_id=1, eos_id=2, vocab_len=8, max_len=2)
    assert out == [4, 4]
