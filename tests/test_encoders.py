"""Patch handling, encoder stacks, and the closed vocabulary."""

import math

import numpy as np
import pytest

from uniboost.encoders import (MASK_ID, EncoderConfig, ImageEncoder, TextEncoder,
                               Vocabulary, patchify)
from uniboost.tensor import Tensor


def small_config(**kw):
    defaults = dict(layers=2, width=8, heads=2, max_tokens=20, patch_size=2,
                    vocab_size=16)
    defaults.update(kw)
    return EncoderConfig(**defaults)


def layers(enc, inputs, layer_set, **embed_args):
    """The requested layers' outputs, through the multi-layer path."""
    return enc.run_layers(enc.embed(inputs, **embed_args), layer_set)


# ---------------------------------------------------------------------------
# patchify


def test_patchify_shape_for_standard_vit_numbers():
    img = np.zeros((32, 32, 3))
    patches = patchify(img, 16)
    assert patches.shape == (4, 768)


def test_patchify_row_major_patch_order():
    # 4x4 single-channel-ish image built so each 2x2 patch holds one value
    img = np.zeros((4, 4, 3))
    img[:2, :2] = 1.0
    img[:2, 2:] = 2.0
    img[2:, :2] = 3.0
    img[2:, 2:] = 4.0
    patches = patchify(img, 2)
    assert patches.shape == (4, 12)
    assert np.array_equal(patches.mean(axis=1), [1.0, 2.0, 3.0, 4.0])


def test_patchify_pixel_layout_within_patch():
    h = w = 2
    img = np.arange(h * w * 3, dtype=float).reshape(h, w, 3)
    row = patchify(img, 2)[0]
    # row-major pixel order, channels fastest
    assert np.array_equal(row, img.reshape(-1))


def test_patchify_orders_patches_row_major_on_rectangular_image():
    rng = np.random.default_rng(0)
    img = rng.standard_normal((8, 12, 3))
    patches = patchify(img, 4)
    assert patches.shape == (6, 48)
    for r in range(2):
        for c in range(3):
            block = img[4 * r:4 * r + 4, 4 * c:4 * c + 4]
            assert np.array_equal(patches[r * 3 + c], block.reshape(-1))


@pytest.mark.parametrize("shape, dtype", [((3, 8, 12, 1), np.int64),
                                          ((3, 8, 12, 3), np.float64),
                                          ((2, 2, 8, 8, 3), np.float64)],
                         ids=["int-rectangular", "float64-rectangular",
                              "float64-two-lead-axes"])
def test_batched_patchify_equals_stacked_per_image_patchify(shape, dtype):
    rng = np.random.default_rng(3)
    images = (rng.integers(0, 9, size=shape) if dtype == np.int64
              else rng.standard_normal(shape))
    batched = patchify(images, 4)
    per_image = np.stack([patchify(img, 4) for img in images.reshape(-1, *shape[-3:])])
    assert batched.dtype == dtype
    assert batched.shape == (*shape[:-3], *per_image.shape[1:])
    assert np.array_equal(batched.reshape(per_image.shape), per_image)


def test_patchify_validates_input():
    with pytest.raises(ValueError, match="H x W x C"):
        patchify(np.zeros((4, 4)), 2)
    with pytest.raises(ValueError, match="does not divide"):
        patchify(np.zeros((5, 4, 3)), 2)


# ---------------------------------------------------------------------------
# encoder stacks


def test_encoder_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        EncoderConfig(width=10, heads=4)
    with pytest.raises(ValueError, match="positive"):
        EncoderConfig(layers=0)


def test_image_encoder_output_layers():
    cfg = small_config()
    enc = ImageEncoder(cfg, seed="img:0")
    images = np.random.default_rng(1).uniform(size=(2, 4, 4, 3))
    out = layers(enc, images, {1, 2})
    assert sorted(out) == [1, 2]
    assert out[1].shape == (2, 4, cfg.width)
    assert out[2].shape == (2, 4, cfg.width)


def test_final_layer_is_normalized_intermediate_is_not():
    cfg = small_config()
    enc = ImageEncoder(cfg, seed=3)
    images = np.random.default_rng(2).uniform(size=(1, 4, 4, 3))
    out = layers(enc, images, {1, 2})
    v_final = out[2].values.var(axis=-1)
    assert np.all(np.abs(v_final - 1.0) < 1e-8)  # fresh LayerNorm: unit variance
    v_mid = out[1].values.var(axis=-1)
    assert np.any(np.abs(v_mid - 1.0) > 1e-3)


def test_requesting_subset_matches_full_run():
    cfg = small_config()
    enc = ImageEncoder(cfg, seed=4)
    images = np.random.default_rng(3).uniform(size=(1, 4, 4, 3))
    both = layers(enc, images, {1, 2})
    only2 = layers(enc, images, {2})
    assert np.array_equal(both[2].values, only2[2].values)


def test_encoder_call_returns_each_requested_layer():
    cfg = small_config()
    enc = ImageEncoder(cfg, seed=5)
    images = np.random.default_rng(4).uniform(size=(1, 4, 4, 3))
    outs = layers(enc, images, {2, 1})
    assert sorted(outs) == [1, 2]
    assert np.array_equal(outs[1].values, layers(enc, images, {1})[1].values)
    assert np.array_equal(outs[2].values, layers(enc, images, {2})[2].values)
    assert np.array_equal(outs[2].values, enc(images).values)


def test_image_embed_mask_override_with_nothing_masked_is_identity():
    cfg = small_config()
    enc = ImageEncoder(cfg, seed=7)
    images = np.random.default_rng(5).uniform(size=(2, 4, 4, 3))
    token = Tensor(np.random.default_rng(6).normal(size=cfg.width))
    plain = enc.embed(images).values
    overridden = enc.embed(images, (token, np.zeros((2, 4)))).values
    assert np.array_equal(plain, overridden)


def test_masked_patch_pixels_never_reach_the_encoder_output():
    cfg = small_config()
    enc = ImageEncoder(cfg, seed=8)
    rng = np.random.default_rng(7)
    images = rng.uniform(size=(2, 4, 4, 3))
    token = Tensor(rng.normal(size=cfg.width))
    masked = np.array([[1, 0, 0, 1], [0, 1, 0, 0]])
    changed = images.copy()
    changed[0, :2, :2] = rng.uniform(size=(2, 2, 3))   # patch 0 of image 0
    changed[0, 2:, 2:] = rng.uniform(size=(2, 2, 3))   # patch 3 of image 0
    changed[1, :2, 2:] = rng.uniform(size=(2, 2, 3))   # patch 1 of image 1
    before = layers(enc, images, {1, 2}, mask=(token, masked))
    after = layers(enc, changed, {1, 2}, mask=(token, masked))
    for layer in (1, 2):
        assert np.array_equal(before[layer].values, after[layer].values)
    assert np.array_equal(enc(images, mask=(token, masked)).values, before[2].values)
    unmasked = enc(changed).values
    assert not np.array_equal(unmasked, enc(images).values)


def test_token_and_layer_limits():
    cfg = small_config(max_tokens=3)
    enc = TextEncoder(cfg, seed=0)
    too_long = Tensor(np.zeros((1, 4, cfg.width)))
    with pytest.raises(ValueError, match="exceeds max"):
        enc.run_layers(too_long, {cfg.layers})
    with pytest.raises(ValueError, match="outside 1..2"):
        layers(enc, np.zeros((1, 2), dtype=int), {3})
    with pytest.raises(ValueError, match="empty input"):
        enc(np.zeros((1, 0), dtype=int))


def test_text_embed_scales_tokens_by_sqrt_width():
    cfg = small_config()
    enc = TextEncoder(cfg, seed=6)
    ids = np.array([[3, 5]])
    got = enc.embed(ids).values
    want = (math.sqrt(cfg.width) * enc.tok.table.values[ids]
            + enc.pos.table.values[:2])
    assert np.allclose(got, want, atol=1e-12)


def test_same_seed_same_weights_different_seeds_differ():
    cfg = small_config()
    a = TextEncoder(cfg, seed="txt:7")
    b = TextEncoder(cfg, seed="txt:7")
    c = TextEncoder(cfg, seed="txt:8")
    assert np.array_equal(a.tok.table.values, b.tok.table.values)
    assert not np.array_equal(a.tok.table.values, c.tok.table.values)


def test_image_encoder_forward_is_deterministic():
    cfg = small_config()
    enc = ImageEncoder(cfg, seed=9)
    images = np.random.default_rng(5).uniform(size=(2, 4, 4, 3))
    a = enc(images).values.tobytes()
    b = enc(images).values.tobytes()
    assert a == b


# ---------------------------------------------------------------------------
# vocabulary


def test_vocabulary_special_ids_come_first():
    v = Vocabulary(["red", "circle"])
    assert v.unk_id == 0 and v.eos_id == 2
    assert MASK_ID == 1 and v.decode([MASK_ID]) == "<mask>"
    assert v.encode("red circle") == [3, 4]
    assert len(v) == 5


def test_vocabulary_unknown_words_map_to_unk():
    v = Vocabulary(["red"])
    assert v.encode("red zebra red") == [3, 0, 3]
    assert v.decode([3, 0]) == "red <unk>"


def test_vocabulary_rejects_reserved_and_duplicate_words():
    with pytest.raises(ValueError, match="reserved"):
        Vocabulary(["<mask>"])
    with pytest.raises(ValueError, match="duplicate"):
        Vocabulary(["red", "red"])


def test_vocabulary_round_trip():
    v = Vocabulary(["what", "color", "is", "the", "ring"])
    text = "what color is the ring"
    assert v.decode(v.encode(text)) == text
