"""Tensor engine: forward oracles, finite-difference checks, tape rules."""

import math

import numpy as np
import pytest

from uniboost import tensor as T
from uniboost.gradcheck import grad_check
from uniboost.tensor import BackwardError, ShapeMismatchError, Tape, Tensor


def leaf(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


# ---------------------------------------------------------------------------
# forward oracles


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 5))
    b = rng.standard_normal((5, 3))
    want = np.zeros((4, 3))
    for i in range(4):
        for j in range(3):
            for k in range(5):
                want[i, j] += a[i, k] * b[k, j]
    got = T.matmul(Tensor(a), Tensor(b)).values
    assert np.allclose(got, want, atol=1e-12)


def test_matmul_batched_matches_per_slice():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2, 3, 4, 5))
    b = rng.standard_normal((2, 3, 5, 6))
    got = T.matmul(Tensor(a), Tensor(b)).values
    for i in range(2):
        for j in range(3):
            assert np.allclose(got[i, j], a[i, j] @ b[i, j])


def test_matmul_shape_errors_name_dims():
    with pytest.raises(ShapeMismatchError, match=r"inner dims"):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    with pytest.raises(ShapeMismatchError, match=r">=2-d"):
        T.matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))


def test_add_mul_forward_and_bias_broadcast():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 4))
    b = rng.standard_normal(4)
    assert np.array_equal(T.add(Tensor(x), Tensor(b)).values, x + b)
    assert np.array_equal(T.mul(Tensor(x), Tensor(b)).values, x * b)
    with pytest.raises(ShapeMismatchError):
        T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(4)))


def test_softmax_rows_are_distributions():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 7))
    y = T.softmax(Tensor(x)).values
    assert np.all(y > 0)
    assert np.allclose(y.sum(axis=-1), 1.0, atol=1e-12)


def test_softmax_constant_row_is_uniform():
    y = T.softmax(Tensor(np.zeros((2, 3)))).values
    assert np.allclose(y, 1.0 / 3.0, atol=1e-15)


def test_softmax_shift_invariance_and_stability():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 6))
    a = T.softmax(Tensor(x)).values
    b = T.softmax(Tensor(x + 1000.0)).values
    assert np.allclose(a, b, atol=1e-12)
    assert np.all(np.isfinite(T.softmax(Tensor(np.array([[1e4, -1e4]]))).values))


def test_log_softmax_equals_log_of_softmax():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 9))
    assert np.allclose(T.log_softmax(Tensor(x)).values,
                       np.log(T.softmax(Tensor(x)).values), atol=1e-12)


def test_layer_norm_matches_formula_and_unit_variance():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((4, 8)) * 3.0 + 1.0
    gamma = Tensor(np.ones(8))
    beta = Tensor(np.zeros(8))
    y = T.layer_norm(Tensor(x), gamma, beta).values
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    assert np.allclose(y, (x - mu) / np.sqrt(var + T.LAYER_NORM_EPS), atol=1e-12)
    assert np.all(np.abs(y.mean(axis=-1)) < 1e-8)
    assert np.all(np.abs(y.var(axis=-1) - 1.0) < 1e-8)


def test_layer_norm_rejects_bad_param_shapes():
    x = Tensor(np.zeros((2, 8)))
    with pytest.raises(ShapeMismatchError, match=r"\(8,\)"):
        T.layer_norm(x, Tensor(np.ones((8, 1))), Tensor(np.zeros(8)))


def test_gelu_matches_erf_reference():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(50) * 2.0
    got = T.gelu(Tensor(x)).values
    want = np.array([v * 0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x])
    assert np.allclose(got, want, atol=1e-12)


def test_embedding_lookup_and_duplicate_grad_accumulation():
    table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    ids = np.array([1, 1, 3])
    with Tape() as tape:
        out = T.embedding(table, ids)
        loss = T.sum_(out)
    assert np.array_equal(out.values, table.values[ids])
    tape.backward(loss, [table])
    assert np.array_equal(table.grad[1], [2.0, 2.0, 2.0])  # row 1 used twice
    assert np.array_equal(table.grad[3], [1.0, 1.0, 1.0])
    assert np.array_equal(table.grad[0], [0.0, 0.0, 0.0])


def test_embedding_rejects_bad_ids():
    table = Tensor(np.zeros((4, 3)))
    with pytest.raises(ShapeMismatchError, match="integers"):
        T.embedding(table, np.array([0.5]))
    with pytest.raises(ShapeMismatchError, match="out of range"):
        T.embedding(table, np.array([4]))


def test_concat_slice_round_trip():
    rng = np.random.default_rng(8)
    a, b = rng.standard_normal((2, 3)), rng.standard_normal((2, 5))
    cat = T.concat([Tensor(a), Tensor(b)], axis=1)
    assert np.array_equal(cat.values[:, :3], a)
    back = T.slice_(cat, (slice(None), slice(3, 8)))
    assert np.array_equal(back.values, b)
    with pytest.raises(ShapeMismatchError):
        T.concat([], axis=0)
    with pytest.raises(ShapeMismatchError, match="slice objects"):
        T.slice_(cat, (0, slice(None)))


def test_gather_picks_per_row_entries():
    x = Tensor(np.arange(12.0).reshape(3, 4))
    ids = np.array([0, 3, 2])
    assert np.array_equal(T.gather(x, ids).values, [0.0, 7.0, 10.0])
    with pytest.raises(ShapeMismatchError, match="ids shape"):
        T.gather(x, np.array([[0, 1]]))


def test_mean_sum_match_numpy():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((3, 4, 5))
    assert np.allclose(T.mean(Tensor(x)).values, x.mean())
    assert np.allclose(T.mean(Tensor(x), axis=1).values, x.mean(axis=1))
    assert np.allclose(T.sum_(Tensor(x), axis=2).values, x.sum(axis=2))


def test_transpose_reshape():
    x = Tensor(np.arange(24.0).reshape(2, 3, 4))
    assert T.transpose(x).shape == (2, 4, 3)
    assert T.transpose(x, 0, 1).shape == (3, 2, 4)
    assert T.reshape(x, (6, 4)).shape == (6, 4)
    with pytest.raises(ShapeMismatchError):
        T.reshape(x, (5, 5))


def test_masked_fill_replaces_and_blocks_grad():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    mask = np.array([[True, False, False], [False, True, True]])
    with Tape() as tape:
        y = T.masked_fill(x, mask)
        loss = T.sum_(y)
    assert y.values[0, 0] == T.MASK_FILL_VALUE
    assert y.values[0, 1] == 1.0
    tape.backward(loss, [x])
    assert np.array_equal(x.grad, (~mask).astype(float))


def test_l2_normalize_unit_rows_and_zero_row_error():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((4, 6))
    y = T.l2_normalize(Tensor(x)).values
    assert np.allclose(np.linalg.norm(y, axis=-1), 1.0, atol=1e-12)
    with pytest.raises(ValueError, match="zero-norm"):
        T.l2_normalize(Tensor(np.zeros((1, 3))))


# ---------------------------------------------------------------------------
# finite-difference gradient checks, one per differentiable op


def _op_cases():
    return [
        ("matmul", lambda a, b: T.sum_(T.matmul(a, b)), lambda r: (leaf(r, 3, 4), leaf(r, 4, 2))),
        ("matmul-batched", lambda a, b: T.sum_(T.matmul(a, b)),
         lambda r: (leaf(r, 2, 3, 4), leaf(r, 2, 4, 2))),
        ("add", lambda a, b: T.sum_(T.add(a, b)), lambda r: (leaf(r, 3, 4), leaf(r, 4))),
        ("mul", lambda a, b: T.sum_(T.mul(a, b)), lambda r: (leaf(r, 3, 4), leaf(r, 4))),
        ("scale", lambda a: T.sum_(T.scale(a, -2.5)), lambda r: (leaf(r, 5),)),
        ("softmax", lambda a: T.sum_(T.mul(T.softmax(a), a)), lambda r: (leaf(r, 3, 5),)),
        ("log-softmax", lambda a: T.sum_(T.mul(T.log_softmax(a), a)), lambda r: (leaf(r, 3, 5),)),
        ("layer-norm", lambda x, g, b: T.sum_(T.mul(T.layer_norm(x, g, b), x)),
         lambda r: (leaf(r, 2, 6), Tensor(1.0 + 0.1 * r.standard_normal(6), requires_grad=True),
                    leaf(r, 6))),
        ("gelu", lambda a: T.sum_(T.gelu(a)), lambda r: (leaf(r, 4, 4),)),
        ("embedding", lambda t: T.sum_(T.mul(T.embedding(t, np.array([0, 2, 2])),
                                             T.embedding(t, np.array([1, 1, 0])))),
         lambda r: (leaf(r, 4, 3),)),
        ("concat", lambda a, b: T.sum_(T.mul(T.concat([a, b], axis=1),
                                             T.concat([b, a], axis=1))),
         lambda r: (leaf(r, 2, 3), leaf(r, 2, 3))),
        ("slice", lambda a: T.sum_(T.slice_(a, (slice(1, 3), slice(0, 2)))),
         lambda r: (leaf(r, 4, 4),)),
        ("gather", lambda a: T.sum_(T.gather(a, np.array([1, 0, 2]))),
         lambda r: (leaf(r, 3, 4),)),
        ("mean", lambda a: T.mean(a), lambda r: (leaf(r, 3, 4),)),
        ("mean-axis", lambda a: T.sum_(T.mul(T.mean(a, axis=1), T.mean(a, axis=1))),
         lambda r: (leaf(r, 3, 4),)),
        ("sum-axis", lambda a: T.sum_(T.mul(T.sum_(a, axis=0), T.sum_(a, axis=0))),
         lambda r: (leaf(r, 3, 4),)),
        ("transpose", lambda a: T.sum_(T.mul(T.transpose(a), T.transpose(a))),
         lambda r: (leaf(r, 3, 4),)),
        ("reshape", lambda a: T.sum_(T.mul(T.reshape(a, (2, 6)), T.reshape(a, (2, 6)))),
         lambda r: (leaf(r, 3, 4),)),
        ("masked-fill", lambda a: T.sum_(T.softmax(T.masked_fill(
            a, np.array([[False, True, False, False]] * 3)))),
         lambda r: (leaf(r, 3, 4),)),
        ("l2-normalize", lambda a: T.sum_(T.mul(T.l2_normalize(a), a)),
         lambda r: (Tensor(r.standard_normal((3, 5)) + 2.0, requires_grad=True),)),
    ]


@pytest.mark.parametrize("name,fn,make", _op_cases(), ids=[c[0] for c in _op_cases()])
def test_gradients_match_finite_differences(name, fn, make):
    for trial in range(3):
        rng = np.random.default_rng(hash((name, trial)) % (2 ** 31))
        report = grad_check(fn, make(rng))
        assert report.passed, f"{name} trial {trial}: {report.failures[:3]}"


def test_grad_check_catches_a_wrong_gradient():
    # masked_fill with the gradient NOT blocked would disagree with FD;
    # emulate by comparing against an off-by-factor loss.
    def bad(a):
        return T.scale(T.sum_(a), 1.0001)

    x = leaf(np.random.default_rng(0), 4)
    with Tape() as tape:
        out = T.sum_(x)
    tape.backward(out, [x])
    analytic = x.grad.copy()
    report = grad_check(bad, (Tensor(x.values, requires_grad=True),))
    assert report.passed  # self-consistent fn still passes
    assert np.allclose(analytic, 1.0)


# ---------------------------------------------------------------------------
# tape semantics


def test_backward_twice_raises():
    x = leaf(np.random.default_rng(0), 3)
    with Tape() as tape:
        loss = T.sum_(x)
    tape.backward(loss, [x])
    with pytest.raises(BackwardError, match="already ran"):
        tape.backward(loss, [x])


def test_backward_consumes_the_graph_but_keeps_the_node_list():
    rng = np.random.default_rng(0)
    x, w = leaf(rng, 2, 3), leaf(rng, 3, 2)
    with Tape() as tape:
        T.scale(x, 3.0)  # a node the loss never reaches
        loss = T.sum_(T.gelu(T.matmul(x, w)))
    n = len(tape.nodes)
    assert n == 4
    tape.backward(loss, [x, w])
    assert len(tape.nodes) == n
    assert all(node.inputs == () and node.grad_fn is None for node in tape.nodes)


def test_output_of_an_earlier_tape_is_a_leaf():
    rng = np.random.default_rng(1)
    x = leaf(rng, 3)
    with Tape():
        y = T.scale(x, 2.0)
    with Tape() as tape:
        loss = T.sum_(T.mul(y, y))
    tape.backward(loss, [x])
    assert np.array_equal(y.grad, 2.0 * y.values)
    assert np.array_equal(x.grad, np.zeros(3))


def test_backward_rejects_non_scalar_loss():
    x = leaf(np.random.default_rng(0), 3)
    with Tape() as tape:
        y = T.scale(x, 2.0)
    with pytest.raises(BackwardError, match="scalar"):
        tape.backward(y, [x])


def test_unreachable_params_get_zero_grads():
    rng = np.random.default_rng(0)
    used, unused = leaf(rng, 3), leaf(rng, 4)
    with Tape() as tape:
        loss = T.sum_(used)
    tape.backward(loss, [used, unused])
    assert np.array_equal(unused.grad, np.zeros(4))
    assert np.array_equal(used.grad, np.ones(3))


def test_no_tape_means_no_tracking():
    x = leaf(np.random.default_rng(0), 3)
    y = T.scale(x, 2.0)
    assert y._node is None and not y.requires_grad


def test_grad_accumulates_across_tapes():
    x = leaf(np.random.default_rng(0), 3)
    for _ in range(2):
        with Tape() as tape:
            loss = T.sum_(x)
        tape.backward(loss, [x])
    assert np.array_equal(x.grad, np.full(3, 2.0))


def test_grads_flow_through_shared_subexpression():
    x = leaf(np.random.default_rng(0), 3)
    with Tape() as tape:
        y = T.scale(x, 2.0)
        loss = T.sum_(T.add(y, y))
    tape.backward(loss, [x])
    assert np.allclose(x.grad, 4.0)


def test_primitive_tag_table_is_complete():
    assert set(T._PRIMITIVES) == {
        "matmul", "add", "elementwise-mul", "softmax", "log-softmax",
        "layer-norm", "gelu", "embedding-lookup", "concat", "slice", "gather",
        "mean", "sum", "transpose", "reshape", "scale", "masked-fill",
        "l2-normalize",
    }


def test_forward_and_backward_are_bit_deterministic():
    def run():
        rng = np.random.default_rng(42)
        x = leaf(rng, 4, 6)
        w = leaf(rng, 6, 3)
        with Tape() as tape:
            h = T.gelu(T.matmul(x, w))
            loss = T.mean(T.mul(h, h))
        tape.backward(loss, [x, w])
        return loss.values.tobytes(), x.grad.tobytes(), w.grad.tobytes()

    assert run() == run()
