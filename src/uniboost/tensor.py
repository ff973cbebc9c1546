"""Dense float64 tensors with reverse-mode automatic differentiation.

Operations executed while a :class:`Tape` is active append nodes to it in
topological order; ``Tape.backward`` replays the nodes in reverse and
accumulates gradients into leaf tensors that have ``requires_grad`` set.
With no active tape, every op runs as plain numpy compute and records
nothing — that is the inference path.

The graph is a DAG with one owner, the tape. A tracked tensor points at
its node and a node only at its inputs and gradient closure; nothing points
back. Backward consumes the graph: each node drops its inputs and closure
once its gradient is passed on (``tape.nodes`` still lists the emptied
nodes), so a step's graph is freed by reference counting, not the cyclic GC.

Everything is computed in 64-bit floats. There is no broadcasting beyond
what the individual op contracts document (matmul stacks batch dims,
``add``/``mul`` allow a trailing-axes broadcast for bias-style operands).

``linear`` and ``attention`` are fused: one node each, standing for a chain
of the simpler primitives. A fused op replays that chain's numpy calls in
the same order, on operands of the same memory layout, so its values and
gradients are bit-identical to the chain's; only fewer intermediates are
kept. Work done in place (``out=``, ``*=``) keeps each operation and its
operands, so it changes no bit either.

GELU's ``erf`` is a numpy port of Cephes ``ndtr.c``, the routine behind
``scipy.special.erf``, and gives the same bits.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "ShapeMismatchError",
    "BackwardError",
    "matmul",
    "add",
    "mul",
    "scale",
    "softmax",
    "log_softmax",
    "layer_norm",
    "gelu",
    "embedding",
    "concat",
    "slice_",
    "gather",
    "mean",
    "sum_",
    "transpose",
    "reshape",
    "l2_normalize",
    "linear",
    "attention",
    "MASK_FILL_VALUE",
    "LAYER_NORM_EPS",
]

MASK_FILL_VALUE = -1e9
LAYER_NORM_EPS = 1e-12

_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))


class ShapeMismatchError(ValueError):
    """Input shapes do not conform to the op's shape rule."""


class BackwardError(RuntimeError):
    """Backward preconditions violated (non-scalar loss, double backward)."""


_ACTIVE = threading.local()


def active_tape() -> "Tape | None":
    return getattr(_ACTIVE, "tape", None)


class _Node:
    __slots__ = ("op", "inputs", "grad_fn", "__weakref__")

    def __init__(self, op, inputs, grad_fn):
        self.op = op
        self.inputs = inputs
        self.grad_fn = grad_fn


class Tensor:
    """Row-major float64 array, optionally tracked for gradients.

    ``grad`` is populated by ``Tape.backward`` for leaf tensors with
    ``requires_grad`` and accumulates across backward calls until cleared
    (the optimizer clears it after each step).
    """

    __slots__ = ("values", "requires_grad", "grad", "_node")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.asarray(values, dtype=np.float64)
        self.values = arr if arr.ndim == 0 else np.ascontiguousarray(arr)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._node: _Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    def item(self) -> float:
        if self.values.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.values.reshape(-1)[0])


class Tape:
    """Append-only computation record, consumed by its one backward.

    Nodes are appended in forward order, so reverse iteration is a valid
    topological order and backward visits each node exactly once.
    Single-threaded by construction; distinct tapes on distinct threads
    share no state.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self._consumed = False
        self._prev = None

    def __enter__(self) -> "Tape":
        self._prev = active_tape()
        _ACTIVE.tape = self
        return self

    def __exit__(self, *exc):
        _ACTIVE.tape = self._prev
        return False

    def backward(self, loss: Tensor, params: Sequence[Tensor] = ()) -> None:
        """Propagate d(loss)/d(leaf) into leaf ``.grad`` buffers.

        Every tensor in ``params`` is guaranteed a populated ``grad``
        afterwards; parameters unreachable from the loss get zeros.
        """
        if self._consumed:
            raise BackwardError("backward already ran on this record; reset required")
        if loss.values.size != 1:
            raise BackwardError(f"loss must be scalar, got shape {loss.shape}")
        self._consumed = True

        interior = set(self.nodes)
        grads: dict[_Node, np.ndarray] = {loss._node: np.ones_like(loss.values)}
        for node in reversed(self.nodes):
            g = grads.pop(node, None)
            inputs, grad_fn = node.inputs, node.grad_fn
            node.inputs, node.grad_fn = (), None
            if g is None:
                continue
            for t, gi in zip(inputs, grad_fn(g)):
                if gi is None:
                    continue
                if t._node in interior:
                    acc = grads.get(t._node)
                    grads[t._node] = gi if acc is None else acc + gi
                elif t.requires_grad:
                    t.grad = gi.copy() if t.grad is None else t.grad + gi
        for p in params:
            if p.requires_grad and p.grad is None:
                p.grad = np.zeros_like(p.values)


def _emit(op: str, inputs: tuple[Tensor, ...], out_values: np.ndarray,
          grad_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> Tensor:
    out = Tensor(out_values)
    tape = active_tape()
    if tape is not None:
        for t in inputs:
            if t.requires_grad:
                out.requires_grad = True
                out._node = node = _Node(op, inputs, grad_fn)
                tape.nodes.append(node)
                break
    return out


def _reduce_to_shape(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum-reduce a broadcast gradient back to the operand's shape."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; stacked leading dims follow numpy matmul semantics."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatchError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatchError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    try:
        out = np.matmul(a.values, b.values)
    except ValueError as exc:
        raise ShapeMismatchError(f"matmul batch dims incompatible: {a.shape} @ {b.shape}") from exc

    def grad_fn(g):
        ga = _reduce_to_shape(np.matmul(g, np.swapaxes(b.values, -1, -2)), a.shape)
        gb = _reduce_to_shape(np.matmul(np.swapaxes(a.values, -1, -2), g), b.shape)
        return ga, gb

    return _emit("matmul", (a, b), out, grad_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; operands may broadcast over trailing axes (bias add)."""
    try:
        out = a.values + b.values
    except ValueError as exc:
        raise ShapeMismatchError(f"add shapes incompatible: {a.shape} + {b.shape}") from exc

    def grad_fn(g):
        return _reduce_to_shape(g, a.shape), _reduce_to_shape(g, b.shape)

    return _emit("add", (a, b), out, grad_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product, same broadcast contract as ``add``."""
    try:
        out = a.values * b.values
    except ValueError as exc:
        raise ShapeMismatchError(f"mul shapes incompatible: {a.shape} * {b.shape}") from exc

    def grad_fn(g):
        return (_reduce_to_shape(g * b.values, a.shape),
                _reduce_to_shape(g * a.values, b.shape))

    return _emit("elementwise-mul", (a, b), out, grad_fn)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _emit("scale", (a,), a.values * c, lambda g: (g * c,))


def _softmax(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Stable softmax of ``x`` over the last axis, written into ``out``
    (which may be ``x``)."""
    np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def _softmax_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``y * (g - sum(g * y))`` over the last axis, in one new buffer."""
    gx = g * y
    dot = gx.sum(axis=-1, keepdims=True)
    np.subtract(g, dot, out=gx)
    np.multiply(y, gx, out=gx)
    return gx


def softmax(x: Tensor) -> Tensor:
    """Stable softmax over the last axis."""
    y = _softmax(x.values, np.empty_like(x.values))
    return _emit("softmax", (x,), y, lambda g: (_softmax_grad(y, g),))


def log_softmax(x: Tensor) -> Tensor:
    shifted = x.values - x.values.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    y = shifted - lse

    def grad_fn(g):
        return (g - np.exp(y) * g.sum(axis=-1, keepdims=True),)

    return _emit("log-softmax", (x,), y, grad_fn)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit population variance, then
    apply the learned elementwise scale and shift."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeMismatchError(
            f"layer-norm scale/shift must be ({d},), got {gamma.shape} and {beta.shape}")
    mu = x.values.mean(axis=-1, keepdims=True)
    xc = x.values - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = xc * inv
    out = xhat * gamma.values + beta.values

    def grad_fn(g):
        lead = tuple(range(g.ndim - 1))
        dgamma = (g * xhat).sum(axis=lead)
        dbeta = g.sum(axis=lead)
        dxhat = g * gamma.values
        dx = inv * (dxhat
                    - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        return dx, dgamma, dbeta

    return _emit("layer-norm", (x, gamma, beta), out, grad_fn)


# Cephes ndtr.c (Moshier, 1989): erf(x) = x T(x^2) / U(x^2) for |x| <= 1,
# otherwise 1 - erfc(|x|) with erfc = exp(-x^2) P(x) / Q(x) below 8 and
# exp(-x^2) R(x) / S(x) above. U, Q and S have an implicit leading 1.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_MAXLOG = 7.09782712893383996843E2


def _polevl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """Cephes ``polevl``: Horner's rule, ``ans = ans * x + c`` per coefficient."""
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x: np.ndarray, coef: tuple[float, ...],
           out: np.ndarray | None = None) -> np.ndarray:
    """Cephes ``p1evl``: ``polevl`` with an implicit leading coefficient of 1."""
    ans = np.add(x, coef[0], out=out)
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _erf_tail(x: np.ndarray) -> np.ndarray:
    """erf where |x| > 1 or x is nan, as Cephes computes it."""
    a = np.abs(x)
    y = np.ones_like(a)  # erfc underflows to 0 past MAXLOG
    with np.errstate(over="ignore"):  # a * a overflows to inf, as in C
        live = -a * a >= -_MAXLOG  # false for nan and inf
    a = a[live]
    # libm's exp, as the C code calls it; numpy's own exp differs in the
    # last bit on some inputs.
    z = np.fromiter(map(math.exp, (-a * a).tolist()), np.float64, a.size)
    near = a < 8.0
    p = np.where(near, _polevl(a, _ERFC_P), _polevl(a, _ERFC_R))
    q = np.where(near, _p1evl(a, _ERFC_Q), _p1evl(a, _ERFC_S))
    y[live] = 1.0 - z * p / q
    np.copysign(y, x, out=y)
    y[np.isnan(x)] = np.nan
    return y


def _erf(x: np.ndarray) -> None:
    """Replace ``x`` with ``erf(x)``, bit-identical to Cephes ``erf`` in
    ``ndtr.c``. Working in place needs two scratch arrays, not three."""
    with np.errstate(over="ignore"):  # only a tail element overflows
        z = x * x
    tail = None
    if z.size and not z.max() <= 1.0:  # z <= 1 exactly when |x| <= 1; nan fails
        tail = ~(z <= 1.0)
        x_tail = x[tail]
        x[tail] = z[tail] = 0.0
    y = _polevl(z, _ERF_T)
    y *= x
    # x is not read again: its buffer takes the denominator, then erf.
    np.divide(y, _p1evl(z, _ERF_U, out=x), out=x)
    if tail is not None:
        x[tail] = _erf_tail(x_tail)


def gelu(x: Tensor) -> Tensor:
    """Exact (erf) GELU."""
    cdf = x.values * _INV_SQRT2
    _erf(cdf)
    np.add(1.0, cdf, out=cdf)
    np.multiply(0.5, cdf, out=cdf)
    out = x.values * cdf

    def grad_fn(g):
        gx = -0.5 * x.values
        gx *= x.values
        np.exp(gx, out=gx)
        gx *= _INV_SQRT_2PI  # the normal pdf at x
        np.multiply(x.values, gx, out=gx)
        np.add(cdf, gx, out=gx)
        np.multiply(g, gx, out=gx)
        return (gx,)

    return _emit("gelu", (x,), out, grad_fn)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: ``out[..., :] = table[ids[...], :]``."""
    idx = np.asarray(ids)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ShapeMismatchError("embedding-lookup ids must be integers")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeMismatchError(
            f"embedding-lookup id out of range for table of {table.shape[0]} rows")
    out = table.values[idx]

    def grad_fn(g):
        gt = np.zeros_like(table.values)
        np.add.at(gt, idx, g)
        return (gt,)

    return _emit("embedding-lookup", (table,), out, grad_fn)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ShapeMismatchError("concat of zero tensors")
    try:
        out = np.concatenate([t.values for t in tensors], axis=axis)
    except ValueError as exc:
        raise ShapeMismatchError(
            f"concat shapes incompatible on axis {axis}: {[t.shape for t in tensors]}") from exc
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def grad_fn(g):
        return tuple(np.split(g, splits, axis=axis))

    return _emit("concat", tuple(tensors), out, grad_fn)


def slice_(x: Tensor, key: tuple) -> Tensor:
    """Basic slicing with a tuple of ``slice`` objects (no integer indices)."""
    if not isinstance(key, tuple):
        key = (key,)
    if any(not isinstance(k, slice) for k in key):
        raise ShapeMismatchError("slice takes slice objects only")
    out = x.values[key]

    def grad_fn(g):
        gx = np.zeros_like(x.values)
        gx[key] = g
        return (gx,)

    return _emit("slice", (x,), out, grad_fn)


def gather(x: Tensor, ids: np.ndarray) -> Tensor:
    """Pick one entry per last-axis row: ``out[...] = x[..., ids[...]]``."""
    idx = np.asarray(ids)
    if idx.shape != x.shape[:-1]:
        raise ShapeMismatchError(f"gather ids shape {idx.shape} != row shape {x.shape[:-1]}")
    out = np.take_along_axis(x.values, idx[..., None], axis=-1)[..., 0]

    def grad_fn(g):
        gx = np.zeros_like(x.values)
        np.put_along_axis(gx, idx[..., None], g[..., None], axis=-1)
        return (gx,)

    return _emit("gather", (x,), out, grad_fn)


def mean(x: Tensor, axis: int | None = None) -> Tensor:
    out = np.asarray(x.values.mean(axis=axis))
    if axis is None:
        n = x.values.size

        def grad_fn(g):
            return (np.full_like(x.values, float(g) / n),)
    else:
        n = x.shape[axis]

        def grad_fn(g):
            return (np.repeat(np.expand_dims(g / n, axis), n, axis=axis),)

    return _emit("mean", (x,), out, grad_fn)


def sum_(x: Tensor, axis: int | None = None) -> Tensor:
    out = np.asarray(x.values.sum(axis=axis))
    if axis is None:
        def grad_fn(g):
            return (np.full_like(x.values, float(g)),)
    else:
        n = x.shape[axis]

        def grad_fn(g):
            return (np.repeat(np.expand_dims(g, axis), n, axis=axis),)

    return _emit("sum", (x,), out, grad_fn)


def transpose(x: Tensor, axis_a: int = -2, axis_b: int = -1) -> Tensor:
    out = np.swapaxes(x.values, axis_a, axis_b)
    return _emit("transpose", (x,), out, lambda g: (np.swapaxes(g, axis_a, axis_b),))


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    try:
        out = x.values.reshape(shape)
    except ValueError as exc:
        raise ShapeMismatchError(f"cannot reshape {x.shape} to {shape}") from exc
    return _emit("reshape", (x,), out, lambda g: (g.reshape(x.shape),))


def l2_normalize(x: Tensor) -> Tensor:
    """Scale each last-axis slice to unit Euclidean norm. Zero-norm slices
    are rejected rather than silently propagating NaN."""
    norm = np.sqrt((x.values * x.values).sum(axis=-1, keepdims=True))
    if np.any(norm < 1e-12):
        raise ValueError("l2-normalize: zero-norm slice")
    y = x.values / norm

    def grad_fn(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return ((g - y * dot) / norm,)

    return _emit("l2-normalize", (x,), y, grad_fn)


# ---------------------------------------------------------------------------
# fused primitives


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``add(matmul(x, w), b)`` as one node: an affine map of the last axis."""
    if x.ndim < 2 or w.ndim != 2 or b.shape != w.shape[1:]:
        raise ShapeMismatchError(
            f"linear needs [..., n, in] @ [in, out] + [out], got {x.shape}, {w.shape}, {b.shape}")
    if x.shape[-1] != w.shape[0]:
        raise ShapeMismatchError(f"linear inner dims differ: {x.shape} @ {w.shape}")
    out = np.matmul(x.values, w.values)
    out += b.values

    def grad_fn(g):
        gx = np.matmul(g, np.swapaxes(w.values, -1, -2))
        gw = _reduce_to_shape(np.matmul(np.swapaxes(x.values, -1, -2), g), w.shape)
        return gx, gw, _reduce_to_shape(g, b.shape)

    return _emit("linear", (x, w, b), out, grad_fn)


def attention(qkv: Tensor, heads: int, allow: np.ndarray | None = None,
              prefix_kv: tuple[np.ndarray, np.ndarray] | None = None,
              keep_kv: list | None = None) -> Tensor:
    """Multi-head scaled dot-product self-attention.

    ``qkv`` is the fused [B, T, 3D] projection: queries, keys and values
    side by side on the last axis, each split into ``heads`` heads of
    D / heads. Returns the heads' outputs merged back to [B, T, D].
    ``allow`` is an optional [T, S] boolean matrix, True where a query may
    attend to a key; other scores are set to ``MASK_FILL_VALUE`` before the
    softmax, so they get zero weight and zero gradient. S is T, or n + T
    with a prefix.

    ``prefix_kv`` is an optional (k, v) pair of [B, heads, n, D / heads]
    keys and values of n earlier rows, which the T queries attend to before
    their own keys. It is inference only: the prefix is a plain array with
    no gradient, so under an active tape an input that requires grad is
    refused rather than trained with the prefix's gradient dropped.
    ``keep_kv``, a list, gets the (k, v) pair the queries attended to
    appended, in the form ``prefix_kv`` takes.

    The values and gradients are those of the chain reshape, transposes,
    slices, ``matmul(q, transpose(k))``, ``scale``, mask, ``softmax``,
    ``matmul(., v)``, transpose and reshape, bit for bit. Backward keeps
    only q, k, v, kᵀ and the softmax output.
    """
    if qkv.ndim != 3 or heads < 1 or qkv.shape[-1] % (3 * heads):
        raise ShapeMismatchError(
            f"attention needs [B, T, 3D] with D divisible by {heads} heads, got {qkv.shape}")
    b, t, d3 = qkv.shape
    hd = d3 // (3 * heads)
    # [3, B, H, T, hd]: q, k and v each contiguous, as the chain's slices were
    q, k, v = np.ascontiguousarray(qkv.values.reshape(b, t, 3, heads, hd).transpose(2, 0, 3, 1, 4))
    if prefix_kv is not None:
        if qkv.requires_grad and active_tape() is not None:
            raise BackwardError("attention over a key/value prefix is inference only: "
                                "the prefix would get no gradient")
        k, v = (np.concatenate([prefix, own], axis=2) for prefix, own in zip(prefix_kv, (k, v)))
    s = k.shape[2]
    if allow is not None:
        allow = np.asarray(allow, dtype=bool)
        if allow.shape != (t, s):
            raise ShapeMismatchError(f"attention mask shape {allow.shape} != ({t}, {s})")
    if keep_kv is not None:
        keep_kv.append((k, v))
    kt = np.ascontiguousarray(np.swapaxes(k, -1, -2))
    c = float(1.0 / np.sqrt(hd))
    y = np.matmul(q, kt)
    y *= c
    if allow is not None:
        np.copyto(y, MASK_FILL_VALUE, where=~allow)
    _softmax(y, y)
    out = np.ascontiguousarray(np.swapaxes(np.matmul(y, v), 1, 2)).reshape(b, t, d3 // 3)

    def grad_fn(g):
        gm = np.swapaxes(g.reshape(b, t, heads, hd), 1, 2)
        gv = np.matmul(np.swapaxes(y, -1, -2), gm)
        gs = _softmax_grad(y, np.matmul(gm, np.swapaxes(v, -1, -2)))
        if allow is not None:
            gs *= allow
        gs *= c
        gq = np.matmul(gs, np.swapaxes(kt, -1, -2))
        gk = np.swapaxes(np.matmul(np.swapaxes(q, -1, -2), gs), -1, -2)
        gqkv = np.empty((b, t, 3, heads, hd))
        slots = gqkv.transpose(2, 0, 3, 1, 4)
        # x + 0.0 maps -0.0 to 0.0 and keeps every other value, as summing
        # the chain's zero-filled slice gradients did
        for i, gi in enumerate((gq, gk, gv)):
            np.add(gi, 0.0, out=slots[i])
        return (gqkv.reshape(b, t, d3),)

    return _emit("attention", (qkv,), out, grad_fn)


_PRIMITIVES: dict[str, Callable] = {
    "matmul": matmul,
    "add": add,
    "elementwise-mul": mul,
    "softmax": softmax,
    "log-softmax": log_softmax,
    "layer-norm": layer_norm,
    "gelu": gelu,
    "embedding-lookup": embedding,
    "concat": concat,
    "slice": slice_,
    "gather": gather,
    "mean": mean,
    "sum": sum_,
    "transpose": transpose,
    "reshape": reshape,
    "scale": scale,
    "l2-normalize": l2_normalize,
    "linear": linear,
    "attention": attention,
}

