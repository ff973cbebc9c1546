"""AdamW with decoupled weight decay, parameter groups, and LR schedules.

The step size for a group at step ``t`` is ``schedule(t) * peak_lr *
group_multiplier``; warmup is linear from zero over the first
``warmup_steps`` steps, after which the chosen decay shape applies on the
remaining horizon. Weight decay is applied directly to the parameter
values (not folded into the gradient), scaled by the same effective rate.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .tensor import Tensor

__all__ = ["AdamW", "MissingGradError", "NonFiniteGradError", "schedule_factor"]

BETAS = (0.9, 0.999)  # first- and second-moment decay rates
EPS = 1e-8


class MissingGradError(RuntimeError):
    """A tracked parameter had no gradient when ``step`` was called."""


class NonFiniteGradError(RuntimeError):
    """A gradient contained NaN or Inf; optimization aborted."""


def schedule_factor(step: int, total_steps: int, warmup_steps: int, shape: str) -> float:
    """Scalar multiplier on the peak learning rate at a given step.

    ``step`` counts completed steps, so the first update (step 0) uses a
    factor of 0 during warmup and the rate ramps linearly to 1.0 at the end
    of warmup, then decays per ``shape``: ``cosine`` to zero, ``linear`` to
    zero, or ``step`` with a single 10x cut at 80% of the horizon.
    """
    if shape not in ("cosine", "linear", "step"):
        raise ValueError(f"unknown schedule shape {shape!r}")
    if total_steps <= 0:
        raise ValueError(f"total_steps must be positive, got {total_steps}")
    if warmup_steps < 0 or warmup_steps > total_steps:
        raise ValueError(f"warmup_steps {warmup_steps} outside [0, {total_steps}]")
    if step < warmup_steps:
        return step / warmup_steps
    span = total_steps - warmup_steps
    if span == 0:
        return 1.0
    frac = (step - warmup_steps) / span
    frac = min(frac, 1.0)
    if shape == "cosine":
        return 0.5 * (1.0 + math.cos(math.pi * frac))
    if shape == "linear":
        return 1.0 - frac
    return 0.1 if frac >= 0.8 else 1.0


class AdamW:
    """Decoupled-weight-decay Adam over named parameter groups.

    ``groups`` maps a group name to ``(params, lr_multiplier)``; the
    conventional split is ``encoder`` parameters at multiplier 0.1 and
    everything else at 1.0. Gradients are consumed and cleared by each
    ``step`` call.
    """

    def __init__(self, groups: dict[str, tuple[Sequence[Tensor], float]],
                 peak_lr: float = 1e-3, weight_decay: float = 0.01,
                 total_steps: int = 1000, warmup_steps: int = 50,
                 schedule: str = "cosine"):
        self.groups = {}
        seen: set[int] = set()
        for gname, (params, mult) in groups.items():
            plist = list(params)
            for p in plist:
                if not isinstance(p, Tensor) or not p.requires_grad:
                    raise ValueError(f"group {gname!r} contains a non-trainable entry")
                if id(p) in seen:
                    raise ValueError(f"parameter appears in more than one group: {p.name}")
                seen.add(id(p))
            self.groups[gname] = (plist, float(mult))
        self.peak_lr = float(peak_lr)
        self.weight_decay = float(weight_decay)
        self.total_steps = int(total_steps)
        self.warmup_steps = int(warmup_steps)
        self.schedule = schedule
        schedule_factor(0, self.total_steps, self.warmup_steps, schedule)  # validate early
        self.step_count = 0
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}

    def parameters(self) -> Iterable[Tensor]:
        for plist, _ in self.groups.values():
            yield from plist

    def effective_lr(self, group: str) -> float:
        plist, mult = self.groups[group]
        return schedule_factor(self.step_count, self.total_steps,
                               self.warmup_steps, self.schedule) * self.peak_lr * mult

    def step(self) -> None:
        factor = schedule_factor(self.step_count, self.total_steps,
                                 self.warmup_steps, self.schedule)
        b1, b2 = BETAS
        t = self.step_count + 1
        bc1 = 1.0 - b1 ** t
        bc2 = 1.0 - b2 ** t
        for gname, (plist, mult) in self.groups.items():
            lr = factor * self.peak_lr * mult
            for p in plist:
                if p.grad is None:
                    raise MissingGradError(
                        f"parameter {p.name or '<unnamed>'} in group {gname!r} has no gradient")
                g = p.grad
                if not np.all(np.isfinite(g)):
                    raise NonFiniteGradError(
                        f"non-finite gradient for {p.name or '<unnamed>'} in group {gname!r} "
                        f"at step {self.step_count}")
                key = id(p)
                m = self._m.get(key)
                if m is None:
                    m = self._m[key] = np.zeros_like(p.values)
                    self._v[key] = np.zeros_like(p.values)
                v = self._v[key]
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * (g * g)
                mhat = m / bc1
                vhat = v / bc2
                p.values -= lr * (mhat / (np.sqrt(vhat) + EPS)
                                  + self.weight_decay * p.values)
        self.step_count += 1
        self.zero_grad()

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None
