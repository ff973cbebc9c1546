"""Multiway fusion neck: projection to a common width, concatenation of
image and text blocks into one sequence, a shared fusion transformer, and
the five task routes with their output conventions.

Routes and outputs:
  ImageOnly / TextOnly      pooled vector for a classifier head
  LanguageGuidedVision      per-image-token embeddings (post fusion) plus
                            per-class pooled text embeddings
  ImageToTextGen            full fused sequence under the generative mask
  DeepFusion                same machinery as ImageToTextGen; both are
                            generation routes here, so both use the
                            generative mask

The generative mask lets image tokens attend among themselves and lets
text token j attend to every image token and to text tokens at or before
j. Segmentation logits are temperature-scaled cosine similarities between
patch embeddings and class embeddings, upsampled to pixels by nearest
patch.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .nn import EncoderBlock, LayerNorm, Linear, Module, ModuleList, init_rng
from .tensor import Tensor

__all__ = ["RouteKind", "NeckConfig", "EmbeddingSequence", "Neck",
           "attention_mask", "causal_mask", "fuse_concat",
           "seg_logits", "upsample_patch_grid", "lm_generate", "RouteInputError",
           "SEG_TEMPERATURE"]

SEG_TEMPERATURE = 0.07


class RouteInputError(ValueError):
    """Wrong modalities supplied for a route."""


class RouteKind(enum.Enum):
    IMAGE_ONLY = "image-only"
    TEXT_ONLY = "text-only"
    LANGUAGE_GUIDED_VISION = "language-guided-vision"
    IMAGE_TO_TEXT_GEN = "image-to-text-gen"
    DEEP_FUSION = "deep-fusion"


GENERATIVE_ROUTES = (RouteKind.IMAGE_TO_TEXT_GEN, RouteKind.DEEP_FUSION)


@dataclass(frozen=True)
class NeckConfig:
    encoder_width: int = 32
    text_width: int = 32
    layer_set: tuple[int, ...] = (1, 2)
    common_width: int = 32
    fusion_layers: int = 2
    fusion_heads: int = 4
    vocab_size: int = 64

    def __post_init__(self):
        if not self.layer_set:
            raise ValueError("layer_set must name at least one image encoder layer")
        if self.common_width % self.fusion_heads:
            raise ValueError(
                f"common width {self.common_width} not divisible by heads {self.fusion_heads}")


@dataclass
class EmbeddingSequence:
    """A batch of token embeddings, ``data`` of shape [B, n, width]. In a
    fused sequence the image tokens come first, then the text tokens."""

    data: Tensor

    @property
    def n_tokens(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


def image_sequence(data: Tensor) -> EmbeddingSequence:
    return EmbeddingSequence(data)


def text_sequence(data: Tensor) -> EmbeddingSequence:
    return EmbeddingSequence(data)


def fuse_concat(image_seq: EmbeddingSequence, text_seq: EmbeddingSequence) -> EmbeddingSequence:
    """Image tokens first, then text tokens."""
    if image_seq.width != text_seq.width:
        raise ValueError(f"width mismatch: image {image_seq.width} vs text {text_seq.width}")
    return EmbeddingSequence(T.concat([image_seq.data, text_seq.data], axis=1))


def attention_mask(n_image: int, n_text: int) -> np.ndarray:
    """Generative allow-matrix over the fused sequence (True = may attend)."""
    n = n_image + n_text
    allow = np.zeros((n, n), dtype=bool)
    allow[:n_image, :n_image] = True
    for i in range(n_image, n):
        allow[i, :n_image] = True
        allow[i, n_image:i + 1] = True
    return allow


def causal_mask(n: int) -> np.ndarray:
    """Lower-triangular allow-matrix for text-only autoregressive encoding."""
    return np.tril(np.ones((n, n), dtype=bool))


class Neck(Module):
    def __init__(self, config: NeckConfig, seed: int | str = 0):
        super().__init__()
        rng = init_rng(seed)
        self.config = config
        self.img_proj = Linear(rng, config.encoder_width * len(config.layer_set),
                               config.common_width)
        self.txt_proj = Linear(rng, config.text_width, config.common_width)
        self.blocks = ModuleList([EncoderBlock(rng, config.common_width, config.fusion_heads)
                                  for _ in range(config.fusion_layers)])
        self.final_norm = LayerNorm(config.common_width)
        self.lm_head = Linear(rng, config.common_width, config.vocab_size)

    # -- projection ---------------------------------------------------------

    def project_image(self, per_layer: list[Tensor]) -> EmbeddingSequence:
        """Concatenate the selected layers' features per token, then map to
        the common width."""
        if len(per_layer) != len(self.config.layer_set):
            raise ValueError(
                f"expected {len(self.config.layer_set)} image feature layers, "
                f"got {len(per_layer)}")
        for f in per_layer:
            if f.shape[-1] != self.config.encoder_width:
                raise ValueError(
                    f"image feature width {f.shape[-1]} != config {self.config.encoder_width}")
        stacked = per_layer[0] if len(per_layer) == 1 else T.concat(per_layer, axis=-1)
        return image_sequence(self.img_proj(stacked))

    def project_text(self, final_layer: Tensor) -> EmbeddingSequence:
        if final_layer.shape[-1] != self.config.text_width:
            raise ValueError(
                f"text feature width {final_layer.shape[-1]} != config {self.config.text_width}")
        return text_sequence(self.txt_proj(final_layer))

    # -- fusion -------------------------------------------------------------

    def fusion_forward(self, x: Tensor, allow: np.ndarray | None = None) -> Tensor:
        for block in self.blocks:
            x = block(x, allow)
        return self.final_norm(x)

    def route_forward(self, route: RouteKind,
                      image_seq: EmbeddingSequence | None = None,
                      text_seq: EmbeddingSequence | None = None):
        if route is RouteKind.IMAGE_ONLY:
            if text_seq is not None:
                raise RouteInputError("route accepts image only")
            if image_seq is None:
                raise RouteInputError("image-only route requires an image sequence")
            fused = self.fusion_forward(image_seq.data)
            return T.mean(fused, axis=1)

        if route is RouteKind.TEXT_ONLY:
            if image_seq is not None:
                raise RouteInputError("route accepts text only")
            if text_seq is None:
                raise RouteInputError("text-only route requires a text sequence")
            fused = self.fusion_forward(text_seq.data)
            return T.mean(fused, axis=1)

        if image_seq is None or text_seq is None:
            raise RouteInputError(f"route {route.value} requires both modalities")

        if route is RouteKind.LANGUAGE_GUIDED_VISION:
            patch_emb = self.fusion_forward(image_seq.data)
            class_emb = T.mean(text_seq.data, axis=1)
            return patch_emb, class_emb

        if route in GENERATIVE_ROUTES:
            fused = fuse_concat(image_seq, text_seq)
            allow = attention_mask(image_seq.n_tokens, text_seq.n_tokens)
            return EmbeddingSequence(self.fusion_forward(fused.data, allow))

        raise RouteInputError(f"unknown route {route!r}")


def seg_logits(patch_embeddings: Tensor, class_embeddings: Tensor,
               temperature: float = SEG_TEMPERATURE) -> Tensor:
    """[..., P, W] x [K, W] -> [..., P, K] cosine similarities / temperature."""
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if class_embeddings.shape[0] < 1:
        raise ValueError("need at least one class embedding")
    if patch_embeddings.shape[-1] != class_embeddings.shape[-1]:
        raise ValueError(
            f"width mismatch: patches {patch_embeddings.shape[-1]} "
            f"vs classes {class_embeddings.shape[-1]}")
    p_norm = T.l2_normalize(patch_embeddings)
    c_norm = T.l2_normalize(class_embeddings)
    return T.scale(T.matmul(p_norm, T.transpose(c_norm)), 1.0 / temperature)


def upsample_patch_grid(per_patch: np.ndarray, height: int, width: int,
                        patch_size: int) -> np.ndarray:
    """Nearest-patch upsample of [..., P] patch values to [..., H, W]."""
    p = patch_size
    gh, gw = height // p, width // p
    arr = np.asarray(per_patch)
    grid = arr.reshape(arr.shape[:-1] + (gh, gw))
    return grid.repeat(p, axis=-2).repeat(p, axis=-1)


def lm_generate(neck: Neck, image_seq: EmbeddingSequence, prefix_ids: list[int],
                embed_text, mask_id: int, eos_id: int, vocab_len: int,
                max_len: int) -> list[int]:
    """Greedy mask-slot decoding.

    Each step appends a MASK slot to the running text, re-embeds, runs the
    fused sequence under the generative mask, and reads the LM head at the
    slot; the argmax over the vocabulary's ids ``0..vocab_len-1`` (ties to
    the lowest id) becomes the next token, so LM-head outputs past the
    vocabulary are never emitted. Stops at EOS or after ``max_len`` tokens.
    ``embed_text`` maps a list of token ids to a projected text
    EmbeddingSequence.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    if eos_id < 0 or eos_id >= vocab_len:
        raise ValueError(f"vocabulary lacks EOS id {eos_id}")
    out: list[int] = []
    for _ in range(max_len):
        ids = list(prefix_ids) + out + [mask_id]
        txt_seq = embed_text(ids)
        fused = neck.route_forward(RouteKind.DEEP_FUSION, image_seq, txt_seq)
        slot = fused.n_tokens - 1
        hidden = T.slice_(fused.data, (slice(None), slice(slot, slot + 1)))
        logits = neck.lm_head(hidden)
        next_id = int(np.argmax(logits.values[0, 0, :vocab_len]))
        if next_id == eos_id:
            break
        out.append(next_id)
    return out
