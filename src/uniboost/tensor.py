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
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

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
    "masked_fill",
    "l2_normalize",
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

    __slots__ = ("values", "requires_grad", "grad", "_node", "name")

    def __init__(self, values, requires_grad: bool = False, name: str | None = None):
        arr = np.asarray(values, dtype=np.float64)
        self.values = arr if arr.ndim == 0 else np.ascontiguousarray(arr)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._node: _Node | None = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        if self.values.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.values.reshape(-1)[0])

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag}, requires_grad={self.requires_grad})"


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
    tape = active_tape()
    track = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_values, requires_grad=track)
    if track:
        node = _Node(op, inputs, grad_fn)
        tape.nodes.append(node)
        out._node = node
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


def softmax(x: Tensor) -> Tensor:
    """Stable softmax over the last axis."""
    shifted = x.values - x.values.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def grad_fn(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _emit("softmax", (x,), y, grad_fn)


def log_softmax(x: Tensor) -> Tensor:
    shifted = x.values - x.values.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    y = shifted - lse

    def grad_fn(g):
        return (g - np.exp(y) * g.sum(axis=-1, keepdims=True),)

    return _emit("log-softmax", (x,), y, grad_fn)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = LAYER_NORM_EPS) -> Tensor:
    """Normalize the last axis to zero mean / unit population variance, then
    apply the learned elementwise scale and shift."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeMismatchError(
            f"layer-norm scale/shift must be ({d},), got {gamma.shape} and {beta.shape}")
    mu = x.values.mean(axis=-1, keepdims=True)
    xc = x.values - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
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


def gelu(x: Tensor) -> Tensor:
    """Exact (erf) GELU."""
    cdf = 0.5 * (1.0 + erf(x.values * _INV_SQRT2))
    out = x.values * cdf

    def grad_fn(g):
        pdf = np.exp(-0.5 * x.values * x.values) * _INV_SQRT_2PI
        return (g * (cdf + x.values * pdf),)

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


def masked_fill(x: Tensor, mask: np.ndarray, value: float = MASK_FILL_VALUE) -> Tensor:
    """Replace entries where ``mask`` is True with ``value`` (default -1e9,
    the attention suppression constant). Gradient is zero at filled entries."""
    m = np.asarray(mask, dtype=bool)
    try:
        out = np.where(m, value, x.values)
    except ValueError as exc:
        raise ShapeMismatchError(f"mask shape {m.shape} incompatible with {x.shape}") from exc
    if out.shape != x.shape:
        raise ShapeMismatchError(f"mask shape {m.shape} must broadcast onto {x.shape}")
    keep = ~m

    def grad_fn(g):
        return (g * keep,)

    return _emit("masked-fill", (x,), out, grad_fn)


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
    "masked-fill": masked_fill,
    "l2-normalize": l2_normalize,
}

