"""The three pretraining regimes: supervised classification, image-text
pair contrastive alignment, and masked unimodal modeling (masked patches
for images, masked tokens for text).

``pretrain_run`` takes the arrays its regime reads; ``pipeline.pretrain_stage``
alone chooses the corpus that fills them.

Masked losses are computed over masked positions only, from one [B, N] 0/1
mask per step; gradients with respect to reconstruction targets at unmasked
positions are exactly zero by construction (the loss never reads them).

``train`` is the one training loop, shared with multitask fine-tuning.
Each step runs the objectives in list order: each draws its own batch,
tapes its loss, back-propagates into its optimizer's parameters, appends
the loss to the trace it names, and steps. ``AdamW.step`` clears the
gradients it consumed, so every optimized parameter leaves with ``grad``
None and nothing else zeroes them.
"""

from __future__ import annotations

import enum
import math
from typing import Callable

import numpy as np

from . import tensor as T
from .encoders import EncoderConfig, ImageEncoder, TextEncoder, patchify
from .nn import Linear, Module, Parameter, init_rng, trunc_normal
from .optim import AdamW
from .shapeworld import SHAPES
from .tensor import Tape, Tensor

__all__ = ["PretrainMode", "MimHead", "MlmHead", "mim_loss", "mlm_loss",
           "info_nce", "contrastive_loss", "supervised_cls_loss",
           "cross_entropy", "masked_nll", "pool_sequence", "pretrain_run", "train",
           "CorpusMismatchError", "CONTRASTIVE_TEMPERATURE", "MIM_RATIO", "MLM_RATIO"]

CONTRASTIVE_TEMPERATURE = 0.07
MIM_RATIO = 0.75
MLM_RATIO = 0.15


class CorpusMismatchError(ValueError):
    """Corpus contents do not fit the requested pretraining mode."""


class PretrainMode(enum.Enum):
    SUPERVISED = "supervised"
    PAIR_CONTRASTIVE = "pair-contrastive"
    MASKED_UNIMODAL = "masked-unimodal"


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of [..., K] logits against integer labels."""
    logp = T.log_softmax(logits)
    picked = T.gather(logp, np.asarray(labels))
    return T.scale(T.mean(picked), -1.0)


def pool_sequence(seq: Tensor) -> Tensor:
    """Mean over the token axis of [B, T, D], then L2 normalize."""
    return T.l2_normalize(T.mean(seq, axis=1))


class MimHead(Module):
    """Learned mask token plus a linear pixel-reconstruction head."""

    def __init__(self, config: EncoderConfig, seed: int | str = 0):
        super().__init__()
        rng = init_rng(seed)
        patch_dim = config.patch_size * config.patch_size * 3
        self.mask_token = Parameter(trunc_normal(rng, (config.width,)))
        self.recon = Linear(rng, config.width, patch_dim)


class MlmHead(Module):
    """Output bias for token prediction; logits tie to the token embedding
    table, which keeps the output space in the same geometry the encoder
    reads from."""

    def __init__(self, vocab_size: int):
        super().__init__()
        self.bias = Parameter(np.zeros(vocab_size))

    def logits(self, hidden: Tensor, table: Tensor) -> Tensor:
        return T.add(T.matmul(hidden, T.transpose(table)), self.bias)


def _mask_positions(rng: np.random.Generator, batch: int, n: int, ratio: float) -> np.ndarray:
    """[batch, n] 0/1 mask with ceil(ratio * n) distinct ones per row."""
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"mask ratio must lie in (0, 1), got {ratio}")
    k = math.ceil(ratio * n)
    if k == 0:
        raise ValueError(f"ratio {ratio} masks zero of {n} positions")
    mask = np.zeros((batch, n))
    np.put_along_axis(mask, np.stack([rng.choice(n, size=k, replace=False)
                                      for _ in range(batch)]), 1.0, axis=1)
    return mask


def masked_nll(logits: Tensor, ids: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of ``ids`` over the positions where the
    0/1 ``mask`` is 1."""
    picked = T.gather(T.log_softmax(logits), ids)
    return T.scale(T.sum_(T.mul(picked, Tensor(mask))), -1.0 / mask.sum())


def mim_loss(encoder: ImageEncoder, head: MimHead, images: np.ndarray,
             mask_ratio: float = MIM_RATIO, seed: int = 0,
             targets: Tensor | None = None) -> Tensor:
    """Masked-patch reconstruction error.

    Masked patch embeddings are replaced by the learned mask token before
    position embeddings; the loss is the mean squared error between the
    reconstruction and the original patch pixels at masked positions only.
    ``targets`` defaults to the patchified input and exists so tests can
    probe the masked-only contract.
    """
    flat = np.stack([patchify(img, encoder.config.patch_size) for img in images])
    b, n, patch_dim = flat.shape
    masked = _mask_positions(np.random.default_rng(seed), b, n, mask_ratio)

    hidden = encoder(images, mask=(head.mask_token, masked))
    recon = head.recon(hidden)

    if targets is None:
        targets = Tensor(flat)
    diff = T.add(recon, T.scale(targets, -1.0))
    sq = T.mul(diff, diff)
    masked_sq = T.mul(sq, Tensor(masked[..., None]))
    return T.scale(T.sum_(masked_sq), 1.0 / (masked.sum() * patch_dim))


def mlm_loss(encoder: TextEncoder, head: MlmHead, ids: np.ndarray,
             mask_ratio: float = MLM_RATIO, seed: int = 0, mask_id: int = 1) -> Tensor:
    """Masked-token prediction: cross-entropy at masked positions only."""
    b, n = ids.shape
    if n < 2:
        raise ValueError(f"sequence length {n} < 2")
    if not 0 <= mask_id < encoder.config.vocab_size:
        raise ValueError(f"mask id {mask_id} outside vocabulary of {encoder.config.vocab_size}")
    mask = _mask_positions(np.random.default_rng(seed), b, n, mask_ratio)
    hidden = encoder(np.where(mask == 1.0, mask_id, ids))
    return masked_nll(head.logits(hidden, encoder.tok.table), ids, mask)


def info_nce(image_vecs: Tensor, text_vecs: Tensor, temperature: float) -> Tensor:
    """Symmetric cross-entropy over the similarity matrix of two batches of
    unit vectors; diagonal entries are the positives."""
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    b = image_vecs.shape[0]
    if b < 2:
        raise ValueError(f"contrastive batch of {b} is degenerate; need >= 2 pairs")
    sim = T.matmul(image_vecs, T.transpose(text_vecs))
    logits = T.scale(sim, 1.0 / temperature)
    diag = np.arange(b)
    loss_i2t = cross_entropy(logits, diag)
    loss_t2i = cross_entropy(T.transpose(logits), diag)
    return T.scale(T.add(loss_i2t, loss_t2i), 0.5)


def contrastive_loss(image_encoder: ImageEncoder, text_encoder: TextEncoder,
                     images: np.ndarray, token_ids: np.ndarray,
                     temperature: float = CONTRASTIVE_TEMPERATURE) -> Tensor:
    return info_nce(pool_sequence(image_encoder(images)),
                    pool_sequence(text_encoder(token_ids)), temperature)


def supervised_cls_loss(encoder: ImageEncoder, head: Linear,
                        images: np.ndarray, labels: np.ndarray) -> Tensor:
    labels = np.asarray(labels)
    n_classes = head.out_dim
    if labels.size and labels.max() >= n_classes:
        raise ValueError(f"label {labels.max()} out of range for {n_classes} classes")
    pooled = T.mean(encoder(images), axis=1)
    return cross_entropy(head(pooled), labels)


def train(objectives: list[tuple[Callable[[int], tuple[str, Tensor]], AdamW]],
          steps: int, losses: dict[str, list[float]]) -> None:
    """Run ``steps`` steps over ``(loss_fn, optimizer)`` objectives, where
    ``loss_fn(step)`` returns ``(trace name, scalar loss)``; each loss is
    appended to ``losses[name]``, which the caller creates in report order."""
    for step in range(steps):
        for loss_fn, opt in objectives:
            with Tape() as tape:
                name, loss = loss_fn(step)
            tape.backward(loss, params=list(opt.parameters()))
            losses[name].append(loss.item())
            opt.step()


def _batch_indices(rng: np.random.Generator, n: int, batch_size: int) -> np.ndarray:
    return rng.choice(n, size=min(batch_size, n), replace=False)


def pretrain_run(mode: PretrainMode, images: np.ndarray, targets: np.ndarray,
                 image_encoder: ImageEncoder, text_encoder: TextEncoder, steps: int,
                 seed: int, batch_size: int = 8,
                 peak_lr: float = 1e-3) -> dict[str, list[float]]:
    """Train the given encoders in place under one regime; return the
    per-step loss traces by name.

    What ``images`` and ``targets`` hold, by mode:
      supervised       — images [N,H,W,3], class labels [N], each an index
                         into shapeworld.SHAPES (the head has len(SHAPES) outputs)
      pair-contrastive — images [N,H,W,3], token ids [N,T] (aligned pairs)
      masked-unimodal  — images [N,H,W,3], token ids [M,T] (independent)
    """
    config = image_encoder.config
    rng = np.random.default_rng(seed)

    def make_opt(*modules: Module) -> AdamW:
        params = [p for m in modules for p in m.parameters()]
        return AdamW({"model": (params, 1.0)}, peak_lr=peak_lr, total_steps=max(steps, 1),
                     warmup_steps=min(50, max(steps // 10, 1)), schedule="cosine")

    if mode is PretrainMode.SUPERVISED:
        head = Linear(init_rng(f"cls:{seed}"), config.width, len(SHAPES))

        def supervised(step):
            idx = _batch_indices(rng, len(targets), batch_size)
            return "supervised", supervised_cls_loss(image_encoder, head, images[idx],
                                                     targets[idx])

        objectives = [(supervised, make_opt(image_encoder, head))]

    elif mode is PretrainMode.PAIR_CONTRASTIVE:
        if len(images) != len(targets):
            raise CorpusMismatchError(
                f"pair corpus misaligned: {len(images)} images vs {len(targets)} texts")
        if len(images) < 2:
            raise CorpusMismatchError("pair corpus needs >= 2 pairs")
        bs = max(batch_size, 2)

        def contrastive(step):
            idx = _batch_indices(rng, len(images), bs)
            return "contrastive", contrastive_loss(image_encoder, text_encoder, images[idx],
                                                   targets[idx])

        objectives = [(contrastive, make_opt(image_encoder, text_encoder))]

    else:
        mim_head = MimHead(config, seed=f"mim:{seed}")
        mlm_head = MlmHead(config.vocab_size)
        mim_head.rename_parameters("mim_head.")
        mlm_head.rename_parameters("mlm_head.")

        def mim(step):
            idx = _batch_indices(rng, len(images), batch_size)
            return "mim", mim_loss(image_encoder, mim_head, images[idx],
                                   seed=seed * 100003 + step)

        def mlm(step):
            tdx = _batch_indices(rng, len(targets), batch_size)
            return "mlm", mlm_loss(text_encoder, mlm_head, targets[tdx],
                                   seed=seed * 100019 + step)

        objectives = [(mim, make_opt(image_encoder, mim_head)),
                      (mlm, make_opt(text_encoder, mlm_head))]

    # each loss function is named after the trace it reports
    losses = {fn.__name__: [] for fn, _ in objectives}
    train(objectives, steps, losses)
    return losses
