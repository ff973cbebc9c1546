"""Multiway fusion neck: projection to a common width, concatenation of
image and text blocks into one sequence, a shared fusion transformer, and
the five task routes with their output conventions.

Every route takes [B, n, width] tensors of projected image and/or text
token embeddings. Routes and outputs:
  ImageOnly / TextOnly      pooled [B, width] vector for a classifier head
  LanguageGuidedVision      per-image-token embeddings (post fusion) plus
                            per-class pooled text embeddings
  ImageToTextGen            full fused [B, n_image + n_text, width] sequence,
                            image tokens first, under the generative mask
  DeepFusion                same machinery as ImageToTextGen; both are
                            generation routes here, so both use the
                            generative mask

The generative mask lets image tokens attend among themselves and lets
text token j attend to every image token and to text tokens at or before
j: its text block is ``causal_mask``. Greedy decoding reads the EOS id
and the id count from the ``Vocabulary``, and the MASK id and answer cap
from their constants. Segmentation logits are temperature-scaled cosine
similarities between patch embeddings and class embeddings, upsampled to
pixels by nearest patch.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoders import MASK_ID, Vocabulary
from .nn import EncoderBlock, LayerNorm, Linear, Module, ModuleList, init_rng
from .tensor import Tensor

__all__ = ["RouteKind", "NeckConfig", "Neck", "attention_mask", "causal_mask",
           "seg_logits", "upsample_patch_grid", "lm_generate", "RouteInputError",
           "SEG_TEMPERATURE", "ANSWER_TOKENS"]

SEG_TEMPERATURE = 0.07
ANSWER_TOKENS = 3  # the most tokens greedy VQA decoding emits per answer


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
        if len(set(self.layer_set)) != len(self.layer_set):
            raise ValueError(f"layer_set {self.layer_set} names a layer twice")
        if self.common_width % self.fusion_heads:
            raise ValueError(
                f"common width {self.common_width} not divisible by heads {self.fusion_heads}")


def attention_mask(n_image: int, n_text: int) -> np.ndarray:
    """Generative allow-matrix over the fused sequence (True = may attend)."""
    n = n_image + n_text
    allow = np.zeros((n, n), dtype=bool)
    allow[:, :n_image] = True
    allow[n_image:, n_image:] = causal_mask(n_text)
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

    def project_image(self, per_layer: list[Tensor]) -> Tensor:
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
        return self.img_proj(stacked)

    def project_text(self, final_layer: Tensor) -> Tensor:
        if final_layer.shape[-1] != self.config.text_width:
            raise ValueError(
                f"text feature width {final_layer.shape[-1]} != config {self.config.text_width}")
        return self.txt_proj(final_layer)

    # -- fusion -------------------------------------------------------------

    def fusion_forward(self, x: Tensor, allow: np.ndarray | None = None,
                       prefix_kv: list | None = None, keep_kv: list | None = None) -> Tensor:
        """The fusion blocks and the final norm over ``x``. ``prefix_kv``
        holds one (k, v) prefix per block for ``x``'s rows to attend to
        first; ``keep_kv``, a list, gets each block's (k, v) appended in
        block order (``tensor.attention``)."""
        for i, block in enumerate(self.blocks):
            x = block(x, allow, None if prefix_kv is None else prefix_kv[i], keep_kv)
        return self.final_norm(x)

    def route_forward(self, route: RouteKind,
                      image_seq: Tensor | None = None, text_seq: Tensor | None = None,
                      keep_kv: list | None = None):
        """The route's outputs (see the module docstring). ``keep_kv``, a
        list, gets each fusion block's keys and values over the rows the
        route fuses, in block order."""
        if route is RouteKind.IMAGE_ONLY:
            if text_seq is not None:
                raise RouteInputError("route accepts image only")
            if image_seq is None:
                raise RouteInputError("image-only route requires an image sequence")
            fused = self.fusion_forward(image_seq, keep_kv=keep_kv)
            return T.mean(fused, axis=1)

        if route is RouteKind.TEXT_ONLY:
            if image_seq is not None:
                raise RouteInputError("route accepts text only")
            if text_seq is None:
                raise RouteInputError("text-only route requires a text sequence")
            fused = self.fusion_forward(text_seq, keep_kv=keep_kv)
            return T.mean(fused, axis=1)

        if image_seq is None or text_seq is None:
            raise RouteInputError(f"route {route.value} requires both modalities")

        if route is RouteKind.LANGUAGE_GUIDED_VISION:
            patch_emb = self.fusion_forward(image_seq, keep_kv=keep_kv)
            class_emb = T.mean(text_seq, axis=1)
            return patch_emb, class_emb

        if route in GENERATIVE_ROUTES:
            fused = T.concat([image_seq, text_seq], axis=1)  # image tokens first
            allow = attention_mask(image_seq.shape[1], text_seq.shape[1])
            return self.fusion_forward(fused, allow, keep_kv=keep_kv)

        raise RouteInputError(f"unknown route {route!r}")


def seg_logits(patch_embeddings: Tensor, class_embeddings: Tensor) -> Tensor:
    """[..., P, W] x [K, W] -> [..., P, K] cosine similarities / SEG_TEMPERATURE."""
    if class_embeddings.shape[0] < 1:
        raise ValueError("need at least one class embedding")
    if patch_embeddings.shape[-1] != class_embeddings.shape[-1]:
        raise ValueError(
            f"width mismatch: patches {patch_embeddings.shape[-1]} "
            f"vs classes {class_embeddings.shape[-1]}")
    p_norm = T.l2_normalize(patch_embeddings)
    c_norm = T.l2_normalize(class_embeddings)
    return T.scale(T.matmul(p_norm, T.transpose(c_norm)), 1.0 / SEG_TEMPERATURE)


def upsample_patch_grid(per_patch: np.ndarray, height: int, width: int,
                        patch_size: int) -> np.ndarray:
    """Nearest-patch upsample of [..., P] patch values to [..., H, W]."""
    p = patch_size
    gh, gw = height // p, width // p
    arr = np.asarray(per_patch)
    grid = arr.reshape(arr.shape[:-1] + (gh, gw))
    return grid.repeat(p, axis=-2).repeat(p, axis=-1)


def lm_generate(neck: Neck, image_seq: Tensor, prefix_ids, embed_text,
                vocab: Vocabulary, image_kv: list) -> list[list[int]]:
    """Greedy mask-slot decoding of a batch; one token list per image row.

    ``image_seq`` is [B, n, width] and ``prefix_ids`` a [B, p] array of
    equal-length prefixes. Under the generative mask image rows never attend
    to text, so they are fused once: ``image_kv`` holds each fusion block's
    (k, v) over them, as ``route_forward``'s ``keep_kv`` keeps them in the
    segmentation pass. Each step appends a ``MASK_ID`` slot to every live
    row's running text, re-embeds it, and runs only the text rows through
    the blocks, attending to the image keys and values and, causally, to
    their own. The slot's LM-head logits are those of the whole fused
    sequence through ``route_forward(DEEP_FUSION)``, bit for bit. Their
    argmax over the vocabulary's ids ``0..len(vocab)-1`` (ties to the lowest
    id) becomes the row's next token, so LM-head outputs past the vocabulary
    are never emitted. A row stops at ``vocab.eos_id`` or after
    ``ANSWER_TOKENS`` tokens and leaves the batch with its keys and values,
    so each step runs only the live rows, each on exactly what a one-row
    decode would see. Ragged prefixes are refused, not padded: padding would
    change what each slot attends to. ``embed_text`` maps a [b, m] id array
    to its projected [b, m, width] text embeddings.
    """
    try:
        prefix = np.asarray(prefix_ids, dtype=np.int64)
    except ValueError as err:
        raise ValueError(f"prefixes must all have the same length: {err}") from None
    if prefix.ndim != 2 or len(prefix) != image_seq.shape[0]:
        raise ValueError(f"need a [{image_seq.shape[0]}, p] prefix array, one row per "
                         f"image row, got shape {prefix.shape}")
    n_image = image_seq.shape[1]
    out: list[list[int]] = [[] for _ in prefix]
    live = np.arange(len(prefix))
    ids = prefix
    for _ in range(ANSWER_TOKENS):
        ids = np.concatenate([ids, np.full((len(live), 1), MASK_ID)], axis=1)
        allow = attention_mask(n_image, ids.shape[1])[n_image:]
        fused = neck.fusion_forward(embed_text(ids), allow, prefix_kv=image_kv)
        slot = fused.shape[1] - 1
        hidden = T.slice_(fused, (slice(None), slice(slot, slot + 1)))
        logits = neck.lm_head(hidden)
        next_ids = np.argmax(logits.values[:, 0, :len(vocab)], axis=-1)
        go = next_ids != vocab.eos_id
        for row, token in zip(live[go], next_ids[go]):
            out[row].append(int(token))
        live = live[go]
        if not len(live):
            break
        if not go.all():
            image_kv = [(k[go], v[go]) for k, v in image_kv]
        ids = ids[go]
        ids[:, -1] = next_ids[go]
    return out
