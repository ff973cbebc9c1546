"""Parameter containers and transformer building blocks.

Initialization follows standard transformer practice: truncated normal
(std ``INIT_STD``, clipped at two standard deviations) for weights, zeros for
biases and shifts, ones for layer-norm scales. A parameter is named only by
its dotted module path (``Module.named_parameters``), the name that
checkpoints and optimizer groups address it by.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor

__all__ = ["Parameter", "Module", "ModuleList", "Linear", "Embedding",
           "LayerNorm", "MultiHeadSelfAttention", "FeedForward", "EncoderBlock",
           "trunc_normal", "init_rng", "INIT_STD"]

INIT_STD = 0.02


def init_rng(seed: int | str) -> np.random.Generator:
    """Generator seeded stably from an int or string label."""
    if isinstance(seed, str):
        seed = int.from_bytes(seed.encode("utf-8"), "big") % (2 ** 63)
    return np.random.default_rng(seed)


def trunc_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Normal(0, INIT_STD) samples redrawn until they land within two sigma."""
    out = rng.normal(0.0, INIT_STD, size=shape)
    bound = 2.0 * INIT_STD
    bad = np.abs(out) > bound
    while bad.any():
        out[bad] = rng.normal(0.0, INIT_STD, size=int(bad.sum()))
        bad = np.abs(out) > bound
    return out


def Parameter(values: np.ndarray) -> Tensor:
    return Tensor(values, requires_grad=True)


class Module:
    """Tree of parameters. Attribute assignment registers children."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_children", {})

    def __setattr__(self, key, value):
        if isinstance(value, Tensor) and value.requires_grad:
            self._params[key] = value
        elif isinstance(value, Module):
            self._children[key] = value
        object.__setattr__(self, key, value)

    def named_parameters(self, prefix: str = ""):
        for key, p in self._params.items():
            yield (f"{prefix}{key}", p)
        for key, child in self._children.items():
            yield from child.named_parameters(prefix=f"{prefix}{key}.")

    def parameters(self):
        for _, p in self.named_parameters():
            yield p

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.values.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        mine = dict(self.named_parameters())
        missing = sorted(set(mine) - set(state))
        extra = sorted(set(state) - set(mine))
        if missing or extra:
            raise KeyError(f"state mismatch: missing {missing}, unexpected {extra}")
        for name, p in mine.items():
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != p.values.shape:
                raise ValueError(f"{name}: shape {arr.shape} != parameter {p.values.shape}")
            p.values[...] = arr


class ModuleList(Module):
    def __init__(self, modules):
        super().__init__()
        self.items = list(modules)
        for i, m in enumerate(self.items):
            self._children[str(i)] = m

    def __iter__(self):
        return iter(self.items)


class Linear(Module):
    def __init__(self, rng, in_dim: int, out_dim: int):
        super().__init__()
        self.out_dim = out_dim
        self.weight = Parameter(trunc_normal(rng, (in_dim, out_dim)))
        self.bias = Parameter(np.zeros(out_dim))

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.weight, self.bias)


class Embedding(Module):
    def __init__(self, rng, rows: int, width: int):
        super().__init__()
        self.table = Parameter(trunc_normal(rng, (rows, width)))

    def __call__(self, ids: np.ndarray) -> Tensor:
        return T.embedding(self.table, ids)


class LayerNorm(Module):
    def __init__(self, width: int):
        super().__init__()
        self.scale = Parameter(np.ones(width))
        self.shift = Parameter(np.zeros(width))

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.scale, self.shift)


class MultiHeadSelfAttention(Module):
    """Self-attention over [B, T, D] with an optional boolean allow-mask
    (and ``tensor.attention``'s key/value ``prefix_kv`` and ``keep_kv``)."""

    def __init__(self, rng, width: int, heads: int):
        super().__init__()
        if width % heads:
            raise ValueError(f"width {width} not divisible by heads {heads}")
        self.heads = heads
        self.qkv = Linear(rng, width, 3 * width)
        self.out = Linear(rng, width, width)

    def __call__(self, x: Tensor, allow: np.ndarray | None = None,
                 prefix_kv: tuple[np.ndarray, np.ndarray] | None = None,
                 keep_kv: list | None = None) -> Tensor:
        return self.out(T.attention(self.qkv(x), self.heads, allow, prefix_kv, keep_kv))


class FeedForward(Module):
    """Two-layer MLP with GELU, hidden width 4x."""

    def __init__(self, rng, width: int):
        super().__init__()
        self.up = Linear(rng, width, 4 * width)
        self.down = Linear(rng, 4 * width, width)

    def __call__(self, x: Tensor) -> Tensor:
        return self.down(T.gelu(self.up(x)))


class EncoderBlock(Module):
    """Pre-norm transformer block."""

    def __init__(self, rng, width: int, heads: int):
        super().__init__()
        self.norm1 = LayerNorm(width)
        self.attn = MultiHeadSelfAttention(rng, width, heads)
        self.norm2 = LayerNorm(width)
        self.ffn = FeedForward(rng, width)

    def __call__(self, x: Tensor, allow: np.ndarray | None = None,
                 prefix_kv: tuple[np.ndarray, np.ndarray] | None = None,
                 keep_kv: list | None = None) -> Tensor:
        x = T.add(x, self.attn(self.norm1(x), allow, prefix_kv, keep_kv))
        x = T.add(x, self.ffn(self.norm2(x)))
        return x
