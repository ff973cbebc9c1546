"""Parameter registration, init conventions, and transformer blocks."""

import numpy as np
import pytest

from uniboost import tensor as T
from uniboost.gradcheck import grad_check
from uniboost.nn import (INIT_STD, Embedding, EncoderBlock, FeedForward, LayerNorm,
                         Linear, Module, ModuleList, MultiHeadSelfAttention,
                         init_rng, trunc_normal)
from uniboost.tensor import Tape, Tensor


def test_init_rng_accepts_strings_and_is_stable():
    a = init_rng("img:0").standard_normal(4)
    b = init_rng("img:0").standard_normal(4)
    c = init_rng("txt:0").standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_trunc_normal_respects_two_sigma_bound():
    rng = init_rng(0)
    assert INIT_STD == 0.02
    x = trunc_normal(rng, (10000,))
    assert np.all(np.abs(x) <= 0.04)
    # truncation at 2 sigma shrinks the std to sqrt(1 - 4*phi(2)/(2*Phi(2)-1))
    phi2 = np.exp(-2.0) / np.sqrt(2 * np.pi)
    from math import erf
    mass = erf(2 / np.sqrt(2))
    want = 0.02 * np.sqrt(1 - 4 * phi2 / mass)
    assert abs(x.std() - want) < 0.0005


def test_module_registers_params_and_children():
    class Net(Module):
        def __init__(self):
            super().__init__()
            self.lin = Linear(init_rng(0), 3, 2)
            self.emb = Embedding(init_rng(1), 5, 3)

    names = sorted(n for n, _ in Net().named_parameters())
    assert names == ["emb.table", "lin.bias", "lin.weight"]


def test_module_list_indexes_children():
    blocks = ModuleList([LayerNorm(4), LayerNorm(4)])
    names = sorted(n for n, _ in blocks.named_parameters())
    assert names == ["0.scale", "0.shift", "1.scale", "1.shift"]
    first, second = blocks  # iteration yields the children in index order
    assert dict(blocks.named_parameters())["1.scale"] is second.scale
    assert first is not second


def test_state_dict_round_trip_and_mismatch_errors():
    a = Linear(init_rng(0), 3, 2)
    b = Linear(init_rng(99), 3, 2)
    b.load_state_dict(a.state_dict())
    assert np.array_equal(a.weight.values, b.weight.values)

    with pytest.raises(KeyError, match="missing"):
        b.load_state_dict({"weight": np.zeros((3, 2))})
    bad = a.state_dict()
    bad["weight"] = np.zeros((2, 3))
    with pytest.raises(ValueError, match="shape"):
        b.load_state_dict(bad)


def test_linear_matches_affine_formula():
    lin = Linear(init_rng(0), 4, 3)
    x = np.random.default_rng(1).standard_normal((2, 4))
    got = lin(Tensor(x)).values
    assert np.allclose(got, x @ lin.weight.values + lin.bias.values, atol=1e-12)


def test_layer_norm_output_statistics():
    ln = LayerNorm(16)
    x = np.random.default_rng(2).standard_normal((3, 5, 16)) * 4 + 2
    y = ln(Tensor(x)).values
    assert np.all(np.abs(y.mean(axis=-1)) < 1e-8)
    assert np.all(np.abs(y.var(axis=-1) - 1.0) < 1e-8)


def test_attention_rows_mix_only_allowed_positions():
    rng = init_rng(3)
    attn = MultiHeadSelfAttention(rng, 8, 2)
    x = np.random.default_rng(4).standard_normal((1, 4, 8))
    # Forbid position 0 from seeing anything but itself; changing the
    # other positions then cannot change row 0 of the output.
    allow = np.ones((4, 4), dtype=bool)
    allow[0, 1:] = False
    base = attn(Tensor(x), allow).values
    x2 = x.copy()
    x2[0, 1:] += 5.0
    moved = attn(Tensor(x2), allow).values
    assert np.allclose(base[0, 0], moved[0, 0], atol=1e-12)
    assert not np.allclose(base[0, 1], moved[0, 1], atol=1e-3)


def test_attention_mask_shape_validated():
    attn = MultiHeadSelfAttention(init_rng(0), 8, 2)
    x = Tensor(np.zeros((1, 4, 8)))
    with pytest.raises(ValueError, match=r"\(4, 4\)"):
        attn(x, np.ones((3, 3), dtype=bool))


def test_attention_width_heads_divisibility():
    with pytest.raises(ValueError, match="divisible"):
        MultiHeadSelfAttention(init_rng(0), 8, 3)


def test_encoder_block_gradients_match_finite_differences():
    block = EncoderBlock(init_rng(5), 8, 2)
    x = Tensor(np.random.default_rng(6).standard_normal((2, 3, 8)),
               requires_grad=True)

    def fn(xt):
        return T.mean(T.mul(block(xt), xt))

    report = grad_check(fn, (x,), max_probes_per_input=24)
    assert report.passed, report.failures[:3]


def test_block_parameter_gradients_match_finite_differences():
    block = EncoderBlock(init_rng(7), 8, 2)
    x = Tensor(np.random.default_rng(8).standard_normal((1, 3, 8)))
    params = dict(block.named_parameters())
    qkv = params["attn.qkv.weight"]

    def fn(_):
        h = block(x)
        return T.mean(T.mul(h, h))

    # probe the qkv weight through the full block
    report = grad_check(lambda p: fn(p), (qkv,), max_probes_per_input=16)
    assert report.passed, report.failures[:3]


def test_feed_forward_hidden_is_four_x():
    ffn = FeedForward(init_rng(9), 8)
    assert ffn.up.weight.shape == (8, 32)
    assert ffn.down.weight.shape == (32, 8)


def test_block_forward_is_deterministic():
    def run():
        block = EncoderBlock(init_rng(10), 8, 2)
        x = Tensor(np.random.default_rng(11).standard_normal((2, 4, 8)))
        return block(x).values.tobytes()

    assert run() == run()
