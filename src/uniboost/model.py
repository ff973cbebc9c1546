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
from .config import ExperimentConfig
from .encoders import EncoderConfig, ImageEncoder, TextEncoder, Vocabulary
from .neck import (EmbeddingSequence, Neck, NeckConfig, RouteKind, causal_mask,
                   lm_generate, seg_logits, upsample_patch_grid)
from .nn import Linear, Module, init_rng
from .pretrain import cross_entropy
from .shapeworld import SHAPES, class_id
from .tensor import Tensor

__all__ = ["TaskModel", "encoder_config", "neck_config", "patch_majority_labels",
           "MASK_RECOVERY_PROB"]

MASK_RECOVERY_PROB = 0.7


def encoder_config(cfg: ExperimentConfig) -> EncoderConfig:
    return EncoderConfig(layers=cfg.layers, width=cfg.width, heads=cfg.heads,
                         max_tokens=cfg.max_tokens, patch_size=cfg.patch_size,
                         vocab_size=cfg.vocab_size)


def neck_config(cfg: ExperimentConfig) -> NeckConfig:
    return NeckConfig(encoder_width=cfg.width, text_width=cfg.width,
                      layer_set=tuple(cfg.layer_set), common_width=cfg.common_width,
                      fusion_layers=cfg.fusion_layers, fusion_heads=cfg.fusion_heads,
                      vocab_size=cfg.vocab_size)


def patch_majority_labels(mask: np.ndarray, patch_size: int) -> np.ndarray:
    """[H, W] labels -> [P] majority label per patch (ties to lowest label)."""
    h, w = mask.shape
    p = patch_size
    blocks = (mask.reshape(h // p, p, w // p, p)
              .transpose(0, 2, 1, 3)
              .reshape(-1, p * p))
    return np.array([np.bincount(row).argmax() for row in blocks])


class TaskModel(Module):
    """Everything trainable for intermediate fine-tuning and evaluation."""

    def __init__(self, cfg: ExperimentConfig, vocab: Vocabulary, seed: int,
                 image_encoder: ImageEncoder | None = None,
                 text_encoder: TextEncoder | None = None):
        super().__init__()
        self.cfg = cfg
        self.vocab = vocab
        enc_cfg = encoder_config(cfg)
        self.image_encoder = image_encoder or ImageEncoder(enc_cfg, seed=f"img:{seed}")
        self.text_encoder = text_encoder or TextEncoder(enc_cfg, seed=f"txt:{seed}")
        self.neck = Neck(neck_config(cfg), seed=f"neck:{seed}")
        self.cls_head = Linear(init_rng(f"cls:{seed}"), cfg.common_width, len(SHAPES))
        self.rename_parameters()

    # -- shared pieces -------------------------------------------------------

    def image_seq(self, images: np.ndarray) -> EmbeddingSequence:
        layer_set = set(self.cfg.layer_set)
        by_layer = self.image_encoder(images, layer_set)
        return self.neck.project_image([by_layer[i] for i in sorted(layer_set)])

    def text_seq(self, ids: np.ndarray, causal: bool = False) -> EmbeddingSequence:
        allow = causal_mask(ids.shape[1]) if causal else None
        final = self.text_encoder(ids, allow=allow)[self.cfg.layers]
        return self.neck.project_text(final)

    def class_prompts(self, class_names: list[str]) -> Tensor:
        """[K, width] pooled prompt embedding per class name."""
        ids = np.array([self.vocab.encode(name) for name in class_names])
        seq = self.text_seq(ids)
        return T.mean(seq.data, axis=1)

    def encoder_parameters(self):
        return list(self.image_encoder.parameters()) + list(self.text_encoder.parameters())

    def head_parameters(self):
        return list(self.neck.parameters()) + list(self.cls_head.parameters())

    # -- segmentation (language-guided vision) -------------------------------

    def seg_patch_logits(self, images: np.ndarray, class_names: list[str]) -> Tensor:
        img = self.image_seq(images)
        ids = np.array([self.vocab.encode(name) for name in class_names])
        prompts = self.text_seq(ids)
        patch_emb, class_emb = self.neck.route_forward(
            RouteKind.LANGUAGE_GUIDED_VISION, img, prompts)
        return seg_logits(patch_emb, class_emb)

    def seg_loss(self, images: np.ndarray, masks: np.ndarray,
                 class_names: list[str]) -> Tensor:
        label_to_idx = self._label_index(class_names)
        logits = self.seg_patch_logits(images, class_names)
        targets = []
        for m in np.asarray(masks):
            per_patch = patch_majority_labels(m, self.cfg.patch_size)
            unknown = set(per_patch) - set(label_to_idx)
            if unknown:
                raise ValueError(
                    f"mask labels {sorted(unknown)} not covered by classes {class_names}")
            targets.append([label_to_idx[l] for l in per_patch])
        return cross_entropy(logits, np.array(targets))

    def seg_predict(self, images: np.ndarray, class_names: list[str]) -> np.ndarray:
        """[B, H, W] predicted mask labels."""
        logits = self.seg_patch_logits(images, class_names)
        idx = np.argmax(logits.values, axis=-1)  # [B, P]
        idx_to_label = {i: l for l, i in self._label_index(class_names).items()}
        labels = np.vectorize(idx_to_label.__getitem__)(idx)
        g = self.cfg.grid_size
        return upsample_patch_grid(labels, g, g, self.cfg.patch_size)

    @staticmethod
    def _label_index(class_names: list[str]) -> dict[int, int]:
        out = {}
        for i, name in enumerate(class_names):
            out[0 if name == "background" else class_id(name)] = i
        return out

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
        n_img = img.n_tokens
        text_hidden = T.slice_(fused.data, (slice(None), slice(n_img, n_img + n)))
        logits = self.neck.lm_head(text_hidden)
        logp = T.log_softmax(logits)
        picked = T.gather(logp, ids)
        total = T.sum_(T.mul(picked, Tensor(masked)))
        return T.scale(total, -1.0 / masked.sum())

    def caption_loss(self, images: np.ndarray, caption_ids: np.ndarray, seed: int) -> Tensor:
        return self._recovery_loss(RouteKind.IMAGE_TO_TEXT_GEN, images, caption_ids,
                                   prefix_len=0, seed=seed)

    def vqa_loss(self, images: np.ndarray, qa_ids: np.ndarray, prefix_len: int,
                 seed: int) -> Tensor:
        return self._recovery_loss(RouteKind.DEEP_FUSION, images, qa_ids,
                                   prefix_len=prefix_len, seed=seed)

    def generate_answer(self, image: np.ndarray, question_ids: list[int],
                        max_len: int = 3) -> str:
        img = self.image_seq(np.asarray(image)[None])
        out_ids = lm_generate(self.neck, img, question_ids,
                              lambda ids: self.text_seq(np.array([ids]), causal=True),
                              mask_id=self.vocab.mask_id, eos_id=self.vocab.eos_id,
                              vocab_len=len(self.vocab), max_len=max_len)
        return self.vocab.decode(out_ids)
