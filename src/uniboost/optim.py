"""AdamW with decoupled weight decay, parameter groups, and one LR schedule.

The step size for a group at step ``t`` is ``schedule(t) * peak_lr *
group_multiplier``; warmup is linear from zero over the first
``warmup_steps`` steps (fine-tuning passes at most a fifth of its steps:
``min(warmup_steps, max(steps, 1) // 5)``), after which a half cosine decays
to zero over the remaining horizon. Weight decay (``WEIGHT_DECAY``) is applied
directly to the parameter values (not folded into the gradient), scaled by
the same rate.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

import numpy as np

from .tensor import Tensor

__all__ = ["AdamW", "MissingGradError", "NonFiniteGradError", "schedule_factor"]

BETAS = (0.9, 0.999)  # first- and second-moment decay rates
EPS = 1e-8
WEIGHT_DECAY = 0.01


class MissingGradError(RuntimeError):
    """A tracked parameter had no gradient when ``step`` was called."""


class NonFiniteGradError(RuntimeError):
    """A gradient contained NaN or Inf; optimization aborted."""


def schedule_factor(step: int, total_steps: int, warmup_steps: int) -> float:
    """Scalar multiplier on the peak learning rate at a given step.

    ``step`` counts completed steps, so the first update (step 0) uses a
    factor of 0 during warmup and the rate ramps linearly to 1.0 at the end
    of warmup, then follows a half cosine to zero at ``total_steps``.
    """
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
    return 0.5 * (1.0 + math.cos(math.pi * frac))


class AdamW:
    """Decoupled-weight-decay Adam over named parameter groups.

    ``groups`` maps a group name to ``(params, lr_multiplier)``, where
    ``params`` maps module paths to parameters; fine-tuning puts the encoders
    at ``pipeline.ENCODER_LR_RATIO`` and everything else at 1.0. A group holds
    ``(name, parameter, m, v)`` slots in ``params`` order, with the moment
    buffers allocated here. Each ``step`` consumes and clears the gradients.
    """

    def __init__(self, groups: dict[str, tuple[Mapping[str, Tensor], float]],
                 peak_lr: float = 1e-3, total_steps: int = 1000, warmup_steps: int = 50):
        self.groups = {}
        seen: dict[int, str] = {}
        for gname, (params, mult) in groups.items():
            slots = []
            for pname, p in params.items():
                if not isinstance(p, Tensor) or not p.requires_grad:
                    raise ValueError(f"group {gname!r} contains a non-trainable entry: {pname}")
                if id(p) in seen:
                    raise ValueError(f"parameter appears in more than one group: "
                                     f"{seen[id(p)]} and {pname}")
                seen[id(p)] = pname
                slots.append((pname, p, np.zeros_like(p.values), np.zeros_like(p.values)))
            self.groups[gname] = (slots, float(mult))
        self.peak_lr = float(peak_lr)
        self.total_steps = int(total_steps)
        self.warmup_steps = int(warmup_steps)
        schedule_factor(0, self.total_steps, self.warmup_steps)  # validate early
        self.step_count = 0

    def parameters(self) -> Iterable[Tensor]:
        for slots, _ in self.groups.values():
            yield from (p for _, p, _, _ in slots)

    def effective_lr(self, group: str) -> float:
        _, mult = self.groups[group]
        factor = schedule_factor(self.step_count, self.total_steps, self.warmup_steps)
        return factor * self.peak_lr * mult

    def step(self) -> None:
        factor = schedule_factor(self.step_count, self.total_steps, self.warmup_steps)
        b1, b2 = BETAS
        t = self.step_count + 1
        bc1 = 1.0 - b1 ** t
        bc2 = 1.0 - b2 ** t
        for gname, (slots, mult) in self.groups.items():
            lr = factor * self.peak_lr * mult
            for pname, p, m, v in slots:
                if p.grad is None:
                    raise MissingGradError(
                        f"parameter {pname} in group {gname!r} has no gradient")
                g = p.grad
                if not np.all(np.isfinite(g)):
                    raise NonFiniteGradError(
                        f"non-finite gradient for {pname} in group {gname!r} "
                        f"at step {self.step_count}")
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * (g * g)
                mhat = m / bc1
                vhat = v / bc2
                p.values -= lr * (mhat / (np.sqrt(vhat) + EPS)
                                  + WEIGHT_DECAY * p.values)
        self.step_count += 1
        self.zero_grad()

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None
