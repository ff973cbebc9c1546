"""Fusion neck: masks, routes, segmentation logits, greedy decoding."""

import numpy as np
import pytest

from uniboost import tensor as T
from uniboost.encoders import MASK_ID, Vocabulary
from uniboost.neck import (ANSWER_TOKENS, Neck, NeckConfig, RouteInputError, RouteKind,
                           SEG_TEMPERATURE, attention_mask, causal_mask,
                           lm_generate, seg_logits, upsample_patch_grid)
from uniboost.tensor import ShapeMismatchError, Tensor


def small_neck(**kw):
    base = dict(encoder_width=8, text_width=8, layer_set=(1, 2),
                common_width=8, fusion_layers=2, fusion_heads=2, vocab_size=12)
    base.update(kw)
    return Neck(NeckConfig(**base), seed=0)


def rand_seq(rng, n, width=8):
    return Tensor(rng.normal(size=(1, n, width)))


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
            img = rand_seq(rng, n_img)
            txt_data = rng.normal(size=(1, n_txt, 8))
            base = neck.route_forward(RouteKind.DEEP_FUSION, img, Tensor(txt_data.copy()))
            for j in range(n_txt):
                bumped = txt_data.copy()
                bumped[0, j] += rng.normal(size=8)
                out = neck.route_forward(RouteKind.DEEP_FUSION, img, Tensor(bumped))
                cut = n_img + j
                assert np.array_equal(base.values[:, :cut], out.values[:, :cut]), (n_img, n_txt, j)
                assert not np.array_equal(base.values[:, cut], out.values[:, cut])


# ---------------------------------------------------------------- fuse/split

def test_fuse_then_split_round_trips():
    """With no fusion blocks a generative route is the per-token final norm
    of the fused sequence, so its blocks show the image-first order."""
    neck = small_neck(fusion_layers=0)
    rng = np.random.default_rng(1)
    img = rand_seq(rng, 3)
    txt = rand_seq(rng, 2)
    for route in (RouteKind.IMAGE_TO_TEXT_GEN, RouteKind.DEEP_FUSION):
        fused = neck.route_forward(route, img, txt)
        assert fused.shape == (1, 5, 8)
        assert np.allclose(fused.values[:, :3], neck.final_norm(img).values, atol=1e-12)
        assert np.allclose(fused.values[:, 3:], neck.final_norm(txt).values, atol=1e-12)


def test_fuse_width_mismatch_and_empty_blocks():
    neck = small_neck()
    rng = np.random.default_rng(2)
    img = rand_seq(rng, 2, width=8)
    wide = rand_seq(rng, 2, width=6)
    with pytest.raises(ShapeMismatchError, match="concat shapes"):
        neck.route_forward(RouteKind.DEEP_FUSION, img, wide)
    empty_txt = Tensor(np.zeros((1, 0, 8)))
    fused = neck.route_forward(RouteKind.DEEP_FUSION, img, empty_txt)
    assert np.array_equal(fused.values, neck.fusion_forward(img).values)


# ---------------------------------------------------------------- routes

def test_route_purity_errors():
    neck = small_neck()
    rng = np.random.default_rng(3)
    img = rand_seq(rng, 2)
    txt = rand_seq(rng, 2)
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
    img = rand_seq(rng, 3)
    pooled = neck.route_forward(RouteKind.IMAGE_ONLY, image_seq=img)
    want = neck.fusion_forward(img).values.mean(axis=1)
    assert pooled.shape == (1, 8)
    assert np.allclose(pooled.values, want, atol=1e-12)


def test_language_guided_route_outputs():
    neck = small_neck()
    rng = np.random.default_rng(5)
    img = rand_seq(rng, 4)
    txt = rand_seq(rng, 3)
    patch_emb, class_emb = neck.route_forward(
        RouteKind.LANGUAGE_GUIDED_VISION, img, txt)
    assert patch_emb.shape == (1, 4, 8)
    assert np.allclose(class_emb.values, txt.values.mean(axis=1), atol=1e-12)


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
    with pytest.raises(ValueError, match="names a layer twice"):
        NeckConfig(layer_set=(1, 1))
    with pytest.raises(ValueError, match="not divisible"):
        NeckConfig(common_width=10, fusion_heads=4)


# ---------------------------------------------------------------- seg head

def test_seg_logits_cosine_oracle():
    rng = np.random.default_rng(7)
    patches = rng.normal(size=(2, 5, 8))
    classes = rng.normal(size=(3, 8))
    got = seg_logits(Tensor(patches), Tensor(classes)).values
    p = patches / np.linalg.norm(patches, axis=-1, keepdims=True)
    c = classes / np.linalg.norm(classes, axis=-1, keepdims=True)
    assert SEG_TEMPERATURE == 0.07
    assert np.allclose(got, (p @ c.T) / 0.07, atol=1e-12)


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

def _vocab(n_ids):
    """A real ``Vocabulary`` of ``n_ids`` entries: the three specials, then words."""
    return Vocabulary([f"w{i}" for i in range(n_ids - 3)])


def _decoder_fixture(seed=9, rows=1):
    neck = small_neck()
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(neck.config.vocab_size, 8))
    img = Tensor(rng.normal(size=(rows, 3, 8)))

    def embed_text(ids):
        return neck.project_text(Tensor(table[np.asarray(ids)]))

    return neck, img, embed_text


def _image_kv(neck, img):
    """Each fusion block's keys and values over the image rows ``img``."""
    kept = []
    neck.fusion_forward(img, keep_kv=kept)
    return kept


def _bias_only(neck, bias=None):
    """Make the LM head's logits its bias: ``bias[id]`` at each listed id, 0
    elsewhere."""
    neck.lm_head.weight.values[:] = 0.0
    neck.lm_head.bias.values[:] = 0.0
    for i, value in (bias or {}).items():
        neck.lm_head.bias.values[i] = value


def test_lm_generate_stops_at_eos():
    neck, img, embed_text = _decoder_fixture()
    vocab = _vocab(12)
    _bias_only(neck, {vocab.eos_id: 10.0})
    assert lm_generate(neck, img, [[3]], embed_text, vocab, _image_kv(neck, img)) == [[]]


def test_lm_generate_caps_at_answer_tokens():
    neck, img, embed_text = _decoder_fixture()
    _bias_only(neck, {5: 10.0})
    out = lm_generate(neck, img, [[3]], embed_text, _vocab(12), _image_kv(neck, img))
    assert out == [[5] * ANSWER_TOKENS]


def test_lm_generate_ties_break_to_lowest_id():
    neck, img, embed_text = _decoder_fixture()
    _bias_only(neck)
    out = lm_generate(neck, img, [[3]], embed_text, _vocab(12), _image_kv(neck, img))
    assert out == [[0] * ANSWER_TOKENS]


def test_lm_generate_is_deterministic():
    neck, img, embed_text = _decoder_fixture()
    vocab = _vocab(12)
    a = lm_generate(neck, img, [[3, 4]], embed_text, vocab, _image_kv(neck, img))
    b = lm_generate(neck, img, [[3, 4]], embed_text, vocab, _image_kv(neck, img))
    assert a == b
    assert all(0 <= t < len(vocab) for t in a[0])


def test_batched_lm_generate_matches_one_row_decoding():
    # Rows emit different tokens and leave the batch at different steps:
    # one at EOS on the first step, one on the third, the rest at the
    # ANSWER_TOKENS cap.
    assert ANSWER_TOKENS == 3
    neck, img, embed_text = _decoder_fixture(seed=96, rows=6)
    vocab = _vocab(12)
    rng = np.random.default_rng(97)
    neck.lm_head.weight.values[:] = 3.0 * rng.normal(size=(8, 12))
    neck.lm_head.bias.values[vocab.eos_id] = 2.5
    prefixes = rng.integers(3, 12, size=(6, 2))
    out = lm_generate(neck, img, prefixes, embed_text, vocab, _image_kv(neck, img))
    assert out == [[4, 4, 4], [4, 4, 4], [10, 10], [4, 4, 4], [10, 10, 10], []]
    for row in range(6):
        one_img = Tensor(img.values[row:row + 1])
        one = lm_generate(neck, one_img, prefixes[row:row + 1], embed_text, vocab,
                          _image_kv(neck, one_img))
        assert one == [out[row]], row


def test_lm_generate_validation():
    neck, img, embed_text = _decoder_fixture(rows=2)
    vocab, image_kv = _vocab(12), _image_kv(neck, img)
    with pytest.raises(ValueError, match="same length"):
        lm_generate(neck, img, [[3], [3, 4]], embed_text, vocab, image_kv)
    for prefixes in ([[3]], [[3], [3], [3]], [3, 3]):
        with pytest.raises(ValueError, match="one row per image row"):
            lm_generate(neck, img, prefixes, embed_text, vocab, image_kv)


def test_lm_generate_never_emits_an_id_past_the_vocabulary():
    # The LM head has 12 outputs; an 8-entry vocabulary never emits ids 8..11.
    neck, img, embed_text = _decoder_fixture()
    _bias_only(neck, {9: 10.0, 4: 5.0})
    out = lm_generate(neck, img, [[3]], embed_text, _vocab(8), _image_kv(neck, img))
    assert out == [[4] * ANSWER_TOKENS]


def _causal_decoder(width, heads, n_image, layers, seed):
    """A neck over six image rows of ``n_image`` tokens, its LM head drawn at
    random, four-token prefixes, and a causal text embedding: a running mean
    of table rows, so a slot depends on its row's earlier tokens even with no
    fusion block."""
    neck = Neck(NeckConfig(encoder_width=width, text_width=width, common_width=width,
                           fusion_layers=layers, fusion_heads=heads, vocab_size=12), seed=seed)
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(12, width))
    img = Tensor(rng.normal(size=(6, n_image, width)))
    neck.lm_head.weight.values[:] = rng.normal(size=(width, 12))
    prefixes = rng.integers(3, 12, size=(6, 4))

    def embed_text(ids):
        x = np.cumsum(table[np.asarray(ids)], axis=1)
        return neck.project_text(Tensor(x / np.arange(1, x.shape[1] + 1)[:, None]))

    return neck, img, prefixes, embed_text


def _full_sequence_slot_logits(neck, lm_head, img, prefixes, embed_text, out):
    """Each decode step's slot logits, from the image rows and the text
    fused together through ``route_forward(DEEP_FUSION)``, for the rows
    still live at that step: the decode before image keys and values were
    reused."""
    steps = []
    for step in range(ANSWER_TOKENS):
        live = [row for row, tokens in enumerate(out) if len(tokens) >= step]
        if not live:
            break
        ids = np.array([[*prefixes[row], *out[row][:step], MASK_ID] for row in live])
        fused = neck.route_forward(RouteKind.DEEP_FUSION, Tensor(img.values[live]),
                                   embed_text(ids))
        steps.append(lm_head(T.slice_(fused, (slice(None), slice(-1, None)))).values)
    return steps


@pytest.mark.parametrize("layers", [0, 1, 2])
@pytest.mark.parametrize("width, heads, n_image, seed, ragged_eos_bias",
                         [(8, 2, 5, 4, 2.0), (32, 4, 64, 2, 1.0)],
                         ids=["small", "eval-shaped"])
def test_cached_decode_slot_logits_equal_the_full_fused_sequence(
        layers, width, heads, n_image, seed, ragged_eos_bias):
    # Text rows attending to the image rows' kept keys and values give the
    # slot the same logits, bit for bit, as the whole fused sequence: in a
    # one-step decode, in a three-step one, and when rows end at different
    # steps and leave the batch with their keys and values. The keys and
    # values come from a segmentation pass over the image rows, as in eval,
    # or from a pass of the image rows alone through the fusion blocks.
    neck, img, prefixes, embed_text = _causal_decoder(width, heads, n_image, layers, seed)
    vocab = _vocab(12)
    lm_head = neck.lm_head
    for eos_bias in (50.0, -50.0, ragged_eos_bias):
        lm_head.bias.values[vocab.eos_id] = eos_bias
        kept = []
        neck.route_forward(RouteKind.LANGUAGE_GUIDED_VISION, img, embed_text(prefixes),
                           keep_kv=kept)
        assert len(kept) == layers
        for image_kv in (kept, _image_kv(neck, img)):
            cached = []

            def recording(hidden):
                cached.append(lm_head(hidden))
                return cached[-1]

            neck.lm_head = recording
            try:
                out = lm_generate(neck, img, prefixes, embed_text, vocab, image_kv)
            finally:
                neck.lm_head = lm_head
            lengths = {len(tokens) for tokens in out}
            if eos_bias == 50.0:
                assert lengths == {0}
            elif eos_bias == -50.0:
                assert lengths == {ANSWER_TOKENS}
            else:  # EOS at the first step, at a later one, and rows at the cap
                assert {0, ANSWER_TOKENS} < lengths, lengths
            want = _full_sequence_slot_logits(neck, lm_head, img, prefixes, embed_text, out)
            assert len(cached) == len(want) == min(max(lengths) + 1, ANSWER_TOKENS)
            for got, full in zip(cached, want):
                assert np.array_equal(got.values, full)
