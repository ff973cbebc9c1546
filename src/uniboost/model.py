"""Task model: pretrained encoders + neck + task heads, with the loss and
prediction functions for each task route.

Generative tasks (captioning, VQA) train by masked recovery: a random
subset of the generatable positions is replaced by MASK, the fused
sequence runs under the generative attention mask (text also encodes
causally), and the model predicts the original ids at the masked slots.
Decoding then reproduces exactly this condition one slot at a time.

Language-guided segmentation trains at patch resolution: the target for
each patch is the majority pixel label inside it, and predictions are
mapped back to pixels by nearest-patch upsampling.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .config import ExperimentConfig, encoder_config, neck_config
from .encoders import ImageEncoder, TextEncoder, Vocabulary
from .neck import Neck, RouteKind, causal_mask, lm_generate, seg_logits, upsample_patch_grid
from .nn import Linear, Module, init_rng
from .pretrain import cross_entropy, masked_nll
from .shapeworld import SHAPES, class_id
from .tensor import Tensor

__all__ = ["TaskModel", "patch_majority_labels", "MASK_RECOVERY_PROB"]

MASK_RECOVERY_PROB = 0.7


def patch_majority_labels(masks: np.ndarray, patch_size: int) -> np.ndarray:
    """[..., H, W] labels -> [..., P] majority label per patch (ties to lowest label).

    One ``bincount`` over every patch of the batch: each patch row counts
    into its own block of ``n_labels`` bins.
    """
    masks = np.asarray(masks)
    *lead, h, w = masks.shape
    p = patch_size
    rows = (masks.reshape(*lead, h // p, p, w // p, p)
            .swapaxes(-3, -2)
            .reshape(-1, p * p))
    n_labels = int(rows.max()) + 1
    bins = rows + n_labels * np.arange(len(rows))[:, None]
    counts = np.bincount(bins.ravel(), minlength=len(rows) * n_labels)
    return counts.reshape(len(rows), n_labels).argmax(axis=1).reshape(*lead, -1)


class TaskModel(Module):
    """Everything trainable, from pretraining through evaluation. The
    model is the one place that builds, seeds and names the encoder pair;
    pretraining trains ``image_encoder`` and ``text_encoder`` in place."""

    def __init__(self, cfg: ExperimentConfig, vocab: Vocabulary, seed: int):
        super().__init__()
        self.cfg = cfg
        self.vocab = vocab
        self.image_encoder = ImageEncoder(encoder_config(cfg), seed=f"img:{seed}")
        self.text_encoder = TextEncoder(encoder_config(cfg), seed=f"txt:{seed}")
        self.neck = Neck(neck_config(cfg), seed=f"neck:{seed}")
        self.cls_head = Linear(init_rng(f"cls:{seed}"), cfg.common_width, len(SHAPES))
        self.rename_parameters()

    # -- shared pieces -------------------------------------------------------

    def image_seq(self, images: np.ndarray) -> Tensor:
        layer_set = set(self.cfg.layer_set)
        by_layer = self.image_encoder.run_layers(self.image_encoder.embed(images), layer_set)
        return self.neck.project_image([by_layer[i] for i in sorted(layer_set)])

    def text_seq(self, ids: np.ndarray, causal: bool = False) -> Tensor:
        allow = causal_mask(ids.shape[1]) if causal else None
        return self.neck.project_text(self.text_encoder(ids, allow=allow))

    def class_prompts(self, class_names: list[str]) -> Tensor:
        """[K, n, width] prompt sequence per class name, for ``seg_predict``."""
        return self.text_seq(self._name_ids(class_names))

    def _name_ids(self, class_names: list[str]) -> np.ndarray:
        return np.array([self.vocab.encode(name) for name in class_names])

    def encoder_parameters(self):
        return list(self.image_encoder.parameters()) + list(self.text_encoder.parameters())

    def head_parameters(self):
        return list(self.neck.parameters()) + list(self.cls_head.parameters())

    # -- segmentation (language-guided vision) -------------------------------

    def seg_patch_logits(self, images: np.ndarray, class_names: list[str]) -> Tensor:
        """[B, P, K] patch logits; encodes the images and the class prompts.

        The prompts are encoded here, not through ``class_prompts``, so that
        perfbench's prompt-encode count (the calls to the two) stays one per
        encode."""
        return self._route_seg_logits(self.image_seq(images),
                                      self.text_seq(self._name_ids(class_names)))

    def _route_seg_logits(self, img: Tensor, prompts: Tensor) -> Tensor:
        patch_emb, class_emb = self.neck.route_forward(
            RouteKind.LANGUAGE_GUIDED_VISION, img, prompts)
        return seg_logits(patch_emb, class_emb)

    def seg_loss(self, images: np.ndarray, masks: np.ndarray,
                 class_names: list[str]) -> Tensor:
        logits = self.seg_patch_logits(images, class_names)
        labels = self._class_labels(class_names)
        per_patch = patch_majority_labels(masks, self.cfg.patch_size)  # [B, P]
        unknown = np.setdiff1d(per_patch, labels)
        if unknown.size:
            raise ValueError(
                f"mask labels {unknown.tolist()} not covered by classes {class_names}")
        targets = np.argmax(per_patch[..., None] == labels, axis=-1)
        return cross_entropy(logits, targets)

    def seg_predict(self, img: Tensor, prompts: Tensor,
                    class_names: list[str]) -> np.ndarray:
        """[B, H, W] predicted mask labels from the [B, n, width] image
        sequence and the ``class_prompts`` of ``class_names``."""
        idx = np.argmax(self._route_seg_logits(img, prompts).values, axis=-1)  # [B, P]
        g = self.cfg.grid_size
        return upsample_patch_grid(self._class_labels(class_names)[idx], g, g,
                                   self.cfg.patch_size)

    @staticmethod
    def _class_labels(class_names: list[str]) -> np.ndarray:
        """[K] mask label of each class name."""
        return np.array([0 if name == "background" else class_id(name)
                         for name in class_names])

    # -- classification (image-only route) -----------------------------------

    def cls_logits(self, images: np.ndarray) -> Tensor:
        pooled = self.neck.route_forward(RouteKind.IMAGE_ONLY, self.image_seq(images))
        return self.cls_head(pooled)

    def cls_loss(self, images: np.ndarray, labels: np.ndarray) -> Tensor:
        return cross_entropy(self.cls_logits(images), np.asarray(labels))

    # -- generative routes (captioning, VQA) ----------------------------------

    def _recovery_loss(self, route: RouteKind, images: np.ndarray,
                       ids: np.ndarray, prefix_len: int, seed: int) -> Tensor:
        b, n = ids.shape
        if prefix_len >= n:
            raise ValueError(f"prefix length {prefix_len} leaves nothing to predict")
        rng = np.random.default_rng(seed)
        masked = np.zeros((b, n))
        corrupted = ids.copy()
        eligible = np.arange(prefix_len, n)
        for i in range(b):
            pick = eligible[rng.uniform(size=len(eligible)) < MASK_RECOVERY_PROB]
            if len(pick) == 0:
                pick = eligible[[rng.integers(len(eligible))]]
            corrupted[i, pick] = self.vocab.mask_id
            masked[i, pick] = 1.0

        img = self.image_seq(images)
        txt = self.text_seq(corrupted, causal=True)
        fused = self.neck.route_forward(route, img, txt)
        n_img = img.shape[1]
        text_hidden = T.slice_(fused, (slice(None), slice(n_img, n_img + n)))
        return masked_nll(self.neck.lm_head(text_hidden), ids, masked)

    def caption_loss(self, images: np.ndarray, caption_ids: np.ndarray, seed: int) -> Tensor:
        return self._recovery_loss(RouteKind.IMAGE_TO_TEXT_GEN, images, caption_ids,
                                   prefix_len=0, seed=seed)

    def vqa_loss(self, images: np.ndarray, qa_ids: np.ndarray, prefix_len: int,
                 seed: int) -> Tensor:
        return self._recovery_loss(RouteKind.DEEP_FUSION, images, qa_ids,
                                   prefix_len=prefix_len, seed=seed)

    def generate_answer(self, img: Tensor, question_ids: np.ndarray,
                        max_len: int = 3) -> list[str]:
        """Greedy answer per row of the [B, n, width] image sequence, after
        that row's question in the [B, p] ``question_ids``."""
        out_ids = lm_generate(self.neck, img, question_ids,
                              lambda ids: self.text_seq(ids, causal=True),
                              mask_id=self.vocab.mask_id, eos_id=self.vocab.eos_id,
                              vocab_len=len(self.vocab), max_len=max_len)
        return [self.vocab.decode(ids) for ids in out_ids]
