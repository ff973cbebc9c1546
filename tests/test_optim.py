"""AdamW and schedule behavior against hand-rolled references."""

import math

import numpy as np
import pytest

from uniboost import tensor as T
from uniboost.optim import (WEIGHT_DECAY, AdamW, MissingGradError, NonFiniteGradError,
                            schedule_factor)
from uniboost.tensor import Tape, Tensor


def param(values):
    return Tensor(np.asarray(values, dtype=float), requires_grad=True)


# ---------------------------------------------------------------------------
# schedules


def test_warmup_ramps_linearly_from_zero():
    assert schedule_factor(0, 100, 10) == 0.0
    assert schedule_factor(5, 100, 10) == pytest.approx(0.5)
    assert schedule_factor(10, 100, 10) == pytest.approx(1.0)


def test_cosine_decays_to_zero():
    f = [schedule_factor(s, 100, 0) for s in range(0, 101, 25)]
    want = [0.5 * (1 + math.cos(math.pi * x)) for x in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert f == pytest.approx(want)
    assert schedule_factor(100, 100, 0) == pytest.approx(0.0, abs=1e-15)


def test_schedule_validation():
    with pytest.raises(ValueError, match="total_steps"):
        schedule_factor(0, 0, 0)
    with pytest.raises(ValueError, match="warmup_steps"):
        schedule_factor(0, 10, 11)


# ---------------------------------------------------------------------------
# optimizer mechanics


def test_first_warmup_step_is_a_no_op_on_values():
    p = param([1.0, -2.0])
    opt = AdamW({"all": ({"p": p}, 1.0)}, total_steps=100, warmup_steps=10)
    p.grad = np.array([0.5, 0.5])
    before = p.values.copy()
    opt.step()
    assert np.array_equal(p.values, before)  # factor 0 gates update and decay
    assert opt.step_count == 1
    assert p.grad is None


def test_matches_reference_adamw_over_ten_steps():
    rng = np.random.default_rng(0)
    w0 = rng.standard_normal(5)
    grads = [rng.standard_normal(5) for _ in range(10)]

    p = param(w0.copy())
    opt = AdamW({"all": ({"p": p}, 1.0)}, peak_lr=1e-2, total_steps=10, warmup_steps=0)
    # the group holds the parameter with moment buffers made at construction
    [(name, held, m_held, v_held)] = opt.groups["all"][0]
    assert name == "p" and held is p
    assert not m_held.any() and not v_held.any() and m_held.shape == v_held.shape == (5,)

    # independent reference
    w = w0.copy()
    m = np.zeros(5)
    v = np.zeros(5)
    b1, b2, eps = 0.9, 0.999, 1e-8
    for t, g in enumerate(grads):
        lr = 0.5 * (1.0 + math.cos(math.pi * t / 10)) * 1e-2
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** (t + 1))
        vhat = v / (1 - b2 ** (t + 1))
        w = w - lr * (mhat / (np.sqrt(vhat) + eps) + WEIGHT_DECAY * w)

        p.grad = g.copy()
        opt.step()

    assert np.allclose(p.values, w, atol=1e-14)
    assert np.allclose(m_held, m, atol=1e-15) and np.allclose(v_held, v, atol=1e-15)


def test_weight_decay_is_decoupled():
    # zero gradient still shrinks the parameter once past warmup
    p = param([4.0])
    opt = AdamW({"all": ({"p": p}, 1.0)}, peak_lr=0.1, total_steps=10, warmup_steps=0)
    p.grad = np.array([0.0])
    opt.step()
    assert p.values[0] < 4.0
    assert p.values[0] == pytest.approx(4.0 * (1 - 0.1 * WEIGHT_DECAY))


def test_group_multiplier_scales_updates():
    slow, fast = param([1.0]), param([1.0])
    opt = AdamW({"enc": ({"slow": slow}, 0.0), "head": ({"fast": fast}, 1.0)},
                peak_lr=0.1, total_steps=10, warmup_steps=0)
    slow.grad = np.array([1.0])
    fast.grad = np.array([1.0])
    opt.step()
    assert slow.values[0] == 1.0  # a zero multiplier gates the update and the decay
    # first step: mhat = vhat = g = 1, factor 1
    assert fast.values[0] == pytest.approx(1.0 - 0.1 * (1 / (1 + 1e-8) + WEIGHT_DECAY))


def test_quadratic_descends_after_warmup():
    p = param(np.array([3.0, -2.0]))
    opt = AdamW({"all": ({"p": p}, 1.0)}, peak_lr=5e-2, total_steps=200, warmup_steps=20)
    losses = []
    for _ in range(200):
        with Tape() as tape:
            loss = T.sum_(T.mul(p, p))
        losses.append(loss.item())
        tape.backward(loss, [p])
        opt.step()
    assert losses[-1] < 1e-2 * losses[0]
    # monotone trend after warmup (allow tiny numeric wiggle)
    post = losses[30:]
    assert all(b <= a + 1e-9 for a, b in zip(post, post[1:]))


def test_missing_grad_names_parameter():
    p = param([1.0])
    opt = AdamW({"head": ({"neck.lm_head.weight": p}, 1.0)}, total_steps=10, warmup_steps=0)
    with pytest.raises(MissingGradError, match=r"^parameter neck\.lm_head\.weight in group"):
        opt.step()


def test_non_finite_grad_names_parameter():
    p = param([1.0])
    opt = AdamW({"enc": ({"enc.blocks.0.qkv.weight": p}, 1.0)}, total_steps=10,
                warmup_steps=0)
    p.grad = np.array([np.nan])
    with pytest.raises(NonFiniteGradError, match=r"enc\.blocks\.0\.qkv\.weight in group"):
        opt.step()


def test_duplicate_and_non_trainable_params_rejected():
    p = param([1.0])
    with pytest.raises(ValueError, match="more than one group: shared and shared"):
        AdamW({"a": ({"shared": p}, 1.0), "b": ({"shared": p}, 1.0)})
    frozen = Tensor(np.zeros(1))
    with pytest.raises(ValueError, match="non-trainable entry: frozen"):
        AdamW({"a": ({"frozen": frozen}, 1.0)})


def test_effective_lr_reflects_schedule_and_multiplier():
    p, q = param([1.0]), param([1.0])
    opt = AdamW({"enc": ({"p": p}, 0.1), "head": ({"q": q}, 1.0)}, peak_lr=1e-3,
                total_steps=100, warmup_steps=10)
    assert opt.effective_lr("enc") == 0.0
    for _ in range(10):
        p.grad = np.zeros(1)
        q.grad = np.zeros(1)
        opt.step()
    assert opt.effective_lr("head") == pytest.approx(1e-3)
    assert opt.effective_lr("enc") == pytest.approx(1e-4)
