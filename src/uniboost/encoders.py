"""Toy transformer encoders for images and text.

The image encoder patchifies an H x W x C grid into flattened patches,
projects them to the model width, adds learned positions, and runs a
stack of pre-norm blocks. The text encoder does the same from token ids.
Calling either stack returns the output of every requested layer
(1-based), which is what the neck consumes as multi-layer features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .nn import Embedding, EncoderBlock, LayerNorm, Linear, Module, ModuleList, init_rng
from .tensor import Tensor

__all__ = ["EncoderConfig", "ImageEncoder", "TextEncoder", "Vocabulary",
           "patchify"]

UNK_TOKEN = "<unk>"
MASK_TOKEN = "<mask>"
EOS_TOKEN = "</s>"


@dataclass(frozen=True)
class EncoderConfig:
    layers: int = 2
    width: int = 32
    heads: int = 4
    max_tokens: int = 80
    patch_size: int = 4      # image encoder
    vocab_size: int = 64     # text encoder

    def __post_init__(self):
        if self.width % self.heads:
            raise ValueError(f"width {self.width} not divisible by heads {self.heads}")
        if self.layers < 1 or self.patch_size < 1:
            raise ValueError("layers and patch_size must be positive")


def patchify(image: np.ndarray, patch_size: int) -> np.ndarray:
    """[H, W, C] -> [(H/p)*(W/p), p*p*C] in row-major patch order."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 3:
        raise ValueError(f"expected H x W x C image, got shape {img.shape}")
    h, w, c = img.shape
    p = patch_size
    if h % p or w % p:
        raise ValueError(f"patch size {p} does not divide image dims {h}x{w}")
    grid = img.reshape(h // p, p, w // p, p, c)
    return grid.transpose(0, 2, 1, 3, 4).reshape((h // p) * (w // p), p * p * c)


class _Stack(Module):
    def __init__(self, rng, config: EncoderConfig):
        super().__init__()
        self.config = config
        self.blocks = ModuleList([EncoderBlock(rng, config.width, config.heads)
                                  for _ in range(config.layers)])
        self.final_norm = LayerNorm(config.width)

    def __call__(self, inputs: np.ndarray, layer_set: set[int] | None = None,
                 allow: np.ndarray | None = None, **embed_args) -> dict[int, Tensor]:
        """Embed ``inputs`` (``embed_args`` go to ``embed``) and return the
        requested layers' outputs; the default is the final layer only."""
        layer_set = layer_set or {self.config.layers}
        return self.run_layers(self.embed(inputs, **embed_args), layer_set, allow)

    def run_layers(self, x: Tensor, layer_set: set[int],
                   allow: np.ndarray | None = None) -> dict[int, Tensor]:
        n_tokens = x.shape[-2]
        if n_tokens == 0:
            raise ValueError("empty input sequence")
        if n_tokens > self.config.max_tokens:
            raise ValueError(f"{n_tokens} tokens exceeds max {self.config.max_tokens}")
        bad = sorted(l for l in layer_set if not 1 <= l <= self.config.layers)
        if bad:
            raise ValueError(f"layer-set entries {bad} outside 1..{self.config.layers}")
        if not layer_set:
            raise ValueError("empty layer-set")
        out: dict[int, Tensor] = {}
        last = max(layer_set)
        for i, block in enumerate(self.blocks, start=1):
            x = block(x, allow)
            if i in layer_set:
                out[i] = self.final_norm(x) if i == self.config.layers else x
            if i == last:
                break
        return out


class ImageEncoder(_Stack):
    def __init__(self, config: EncoderConfig, seed: int | str = 0):
        rng = init_rng(seed)
        super().__init__(rng, config)
        p = config.patch_size
        self.patch_proj = Linear(rng, p * p * 3, config.width)  # RGB images
        self.pos = Embedding(rng, config.max_tokens, config.width)

    def embed(self, images: np.ndarray,
              mask: tuple[Tensor, np.ndarray] | None = None) -> Tensor:
        """[B, H, W, 3] -> [B, n_patches, width] patch embeddings + positions.

        ``mask`` is a ``(token [width], masked [B, n_patches] of 0/1)`` pair:
        masked patch embeddings are replaced by the token before positions
        are added, so masked pixels never reach the output.
        """
        flat = np.stack([patchify(img, self.config.patch_size) for img in images])
        x = T.matmul(Tensor(flat), self.patch_proj.weight)
        x = T.add(x, self.patch_proj.bias)
        if mask is not None:
            token, masked = mask
            masked = np.asarray(masked, dtype=np.float64)[..., None]
            token = T.reshape(token, (1, 1, x.shape[-1]))
            x = T.add(T.mul(x, Tensor(1.0 - masked)), T.mul(token, Tensor(masked)))
        n = x.shape[1]
        pos = self.pos(np.arange(n))
        return T.add(x, pos)


class TextEncoder(_Stack):
    def __init__(self, config: EncoderConfig, seed: int | str = 0):
        rng = init_rng(seed)
        super().__init__(rng, config)
        self.tok = Embedding(rng, config.vocab_size, config.width)
        self.pos = Embedding(rng, config.max_tokens, config.width)

    def embed(self, ids: np.ndarray) -> Tensor:
        """[B, T] token ids -> [B, T, width].

        Token embeddings are scaled by sqrt(width) so word identity
        dominates the (unscaled) position signal.
        """
        n = ids.shape[1]
        scaled = T.scale(self.tok(ids), math.sqrt(self.config.width))
        return T.add(scaled, self.pos(np.arange(n)))


class Vocabulary:
    """Whitespace tokenizer over a fixed, closed vocabulary.

    Ids 0..2 are the specials UNK, MASK, EOS; unknown words map to UNK.
    """

    def __init__(self, words: list[str]):
        specials = [UNK_TOKEN, MASK_TOKEN, EOS_TOKEN]
        for s in specials:
            if s in words:
                raise ValueError(f"reserved token {s!r} in word list")
        if len(set(words)) != len(words):
            raise ValueError("duplicate words in vocabulary")
        self.id_to_word = specials + list(words)
        self.word_to_id = {w: i for i, w in enumerate(self.id_to_word)}
        self.unk_id = self.word_to_id[UNK_TOKEN]
        self.mask_id = self.word_to_id[MASK_TOKEN]
        self.eos_id = self.word_to_id[EOS_TOKEN]

    def __len__(self):
        return len(self.id_to_word)

    def encode(self, text: str) -> list[int]:
        return [self.word_to_id.get(w, self.unk_id) for w in text.split()]

    def decode(self, ids) -> str:
        return " ".join(self.id_to_word[int(i)] for i in ids)
