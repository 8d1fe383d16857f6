"""Frozen vision-transformer feature extractor, and the one init rule and
block layout that build every model tensor.

A seeded, desk-scale stand-in for a large pretrained visual encoder: standard
pre-norm blocks with QKV attention, a class token carried through the whole
stack, and four stage outputs (the patch tokens after the last block of each
quarter of the stack). Attention projections are bias-free so a stage's
(W_q, W_k, W_v, W_o) quadruple can be handed to the adapters as-is.

``Backbone.forward`` takes a stack of images only, as every function below
the public API does: a single image is a stack of one. Only the public
edges ``SowaModel.predict``, ``fusion.anomaly_map``, ``fewshot.few_shot_map``
and ``combine_maps``, and ``numerics.bilinear_upsample`` take one image. A
stack runs through every block along its leading image axis, with each
per-image product the same BLAS call as on that image alone, so an image's
features do not depend on the stack it was run in, nor on the thread: a
large stack runs in parts on two threads (``numerics.map_image_parts``).

One init rule, ``seeded_weights``, draws every model tensor, frozen or
trainable: layer-norm scales are ones, offsets and biases zeros, embeddings
and prompt contexts N(0, 0.02), every other matrix N(0, 1/sqrt(fan_in)), all
in the default dtype. ``block_shapes`` is the one weight layout of a
transformer block, here and in the text encoder. The stand-in's fixed
settings are constants: each of the ``STAGES`` stages is ``BLOCKS_PER_STAGE``
blocks, the MLP is ``MLP_RATIO`` times the block width, and pixels are
normalised by ``NORM_MEAN`` and ``NORM_STD`` per channel.

All weights are created once and marked read-only; nothing in this module is
trainable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from . import autodiff as ag
from . import numerics
from .errors import ConfigError, UsageError

STAGES = 4
BLOCKS_PER_STAGE = 2
MLP_RATIO = 4.0
NORM_MEAN = (0.5, 0.5, 0.5)
NORM_STD = (0.25, 0.25, 0.25)
# tensors drawn from N(0, 0.02) rather than N(0, 1/sqrt(fan_in))
EMBEDDINGS = ("pos_embed", "cls_token", "embed_table", "normal_context", "abnormal_context")


@dataclass(frozen=True)
class BackboneConfig:
    image_size: int = 64
    patch_size: int = 8
    channels: int = 64
    heads: int = 4

    def __post_init__(self):
        for name in ("image_size", "patch_size", "channels", "heads"):
            numerics.check_integer(getattr(self, name), name, 1, ConfigError)
        if self.image_size % self.patch_size != 0:
            raise ConfigError(
                f"image_size {self.image_size} not divisible by patch_size {self.patch_size}"
            )
        if self.channels % self.heads != 0:
            raise ConfigError(
                f"channels {self.channels} not divisible by heads {self.heads}"
            )

    @property
    def grid(self) -> int:
        return self.image_size // self.patch_size

    @property
    def tokens(self) -> int:
        return self.grid * self.grid


@dataclass(frozen=True)
class AttentionWeights:
    """Frozen projection matrices of one backbone block."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    heads: int


@dataclass
class Backbone:
    config: BackboneConfig
    weights: Dict[str, np.ndarray] = field(repr=False)

    def __post_init__(self):
        for arr in self.weights.values():
            arr.setflags(write=False)

    def hashes(self) -> Dict[str, str]:
        return {name: tensor_hash(arr) for name, arr in sorted(self.weights.items())}

    def stage_attention_weights(self, stage: int) -> AttentionWeights:
        """(W_q, W_k, W_v, W_o) of the last block of ``stage`` (1-based)."""
        if not 1 <= stage <= STAGES:
            raise UsageError(f"stage must be in 1..{STAGES}, got {stage}")
        block = stage * BLOCKS_PER_STAGE - 1
        w = self.weights
        return AttentionWeights(
            w_q=w[f"blocks.{block}.attn.w_q"],
            w_k=w[f"blocks.{block}.attn.w_k"],
            w_v=w[f"blocks.{block}.attn.w_v"],
            w_o=w[f"blocks.{block}.attn.w_o"],
            heads=self.config.heads,
        )

    def normalize_image(self, image: np.ndarray) -> np.ndarray:
        """``(image - NORM_MEAN) / NORM_STD`` per channel, in the image's dtype
        if it is a float one and in the default float dtype otherwise.

        Each pixel row is one run of W·3 values against the constants tiled
        along it: the same arithmetic, in one inner loop per row instead of
        one per pixel, as a 3-long broadcast axis costs.
        """
        if image.dtype.kind != "f":
            image = image.astype(numerics.default_dtype())
        width = image.shape[-2]
        mean = np.tile(np.asarray(NORM_MEAN, dtype=image.dtype), width)
        std = np.tile(np.asarray(NORM_STD, dtype=image.dtype), width)
        out = np.subtract(image.reshape(*image.shape[:-2], -1), mean)
        out /= std
        return out.reshape(image.shape)

    def forward(self, images) -> Tuple[List[np.ndarray], np.ndarray]:
        """Run the frozen stack on a (B, S, S, 3) stack of images, given as
        one array or a sequence of images.

        Returns the ``STAGES`` (B, L, C) patch-token stage outputs and the
        (B, C) final class tokens, computed in the weights' dtype. A stack
        of at least two ``numerics.CHUNK_TOKENS`` parts runs in parts on
        ``numerics.WORKERS`` threads (``numerics.map_image_parts``). Each
        image's rows equal those of its own stack of one bit for bit, in any
        stack and on any thread. An empty stack, a bare (S, S, 3) image, and
        an image of the wrong shape or with a non-finite value raise
        ``UsageError``.
        """
        cfg = self.config
        try:
            images = np.asarray(images, dtype=self.weights["pos_embed"].dtype)
        except ValueError as exc:  # a sequence of images of differing shapes
            raise UsageError(f"images do not stack into one array: {exc}") from exc
        if images.shape[:1] == (0,):
            raise UsageError("cannot run an empty stack of images")
        expected = (cfg.image_size, cfg.image_size, 3)
        if images.ndim != 4 or images.shape[1:] != expected:
            raise UsageError(f"expected a stack of images of shape {expected}, got {images.shape}")
        finite = np.isfinite(images).all(axis=(1, 2, 3))
        if not finite.all():
            raise UsageError(f"image {int(np.argmin(finite))} contains non-finite values")
        *stages, class_tokens = numerics.map_image_parts(self._blocks, images, cfg.tokens)
        return stages, class_tokens

    def _blocks(self, images: np.ndarray) -> List[np.ndarray]:
        """Normalise, embed and run every block on a checked stack: the
        ``STAGES`` stage outputs, then the class tokens."""
        x = self._embed(self.normalize_image(images))
        stages: List[np.ndarray] = []
        for block in range(STAGES * BLOCKS_PER_STAGE):
            x = transformer_block(x, self.weights, block, self.config.heads)
            if (block + 1) % BLOCKS_PER_STAGE == 0:
                stages.append(x[:, 1:].copy())
        return stages + [x[:, 0].copy()]

    def _embed(self, images: np.ndarray) -> np.ndarray:
        """Normalised (B, S, S, 3) pixels to (B, 1 + tokens, C) embedded
        tokens, the class token first."""
        cfg = self.config
        g, p = cfg.grid, cfg.patch_size
        b = len(images)
        patches = images.reshape(b, g, p, g, p, 3).transpose(0, 1, 3, 2, 4, 5)
        patches = patches.reshape(b, cfg.tokens, p * p * 3)
        tokens = patches @ self.weights["patch_embed.weight"] + self.weights["patch_embed.bias"]
        cls = np.broadcast_to(self.weights["cls_token"], (b, 1, cfg.channels))
        return np.concatenate([cls, tokens], axis=1) + self.weights["pos_embed"]


def transformer_block(x, weights: Dict[str, np.ndarray], idx: int, heads: int):
    """Pre-norm block ``blocks.{idx}`` of ``weights``: QKV attention, then MLP.

    Shared by the vision backbone and the text encoder; ``x`` is an array or
    a Var (the weights are always constants).
    """
    pre = f"blocks.{idx}"
    h = ag.layer_norm(x, weights[f"{pre}.ln1.scale"], weights[f"{pre}.ln1.offset"])
    attn = [weights[f"{pre}.attn.{m}"] for m in ("w_q", "w_k", "w_v", "w_o")]
    x = ag.add(x, ag.attention(h, *attn, heads, "qkv"))
    h = ag.layer_norm(x, weights[f"{pre}.ln2.scale"], weights[f"{pre}.ln2.offset"])
    h = ag.gelu(ag.add(ag.matmul(h, weights[f"{pre}.mlp.w1"]), weights[f"{pre}.mlp.b1"]))
    return ag.add(x, ag.add(ag.matmul(h, weights[f"{pre}.mlp.w2"]), weights[f"{pre}.mlp.b2"]))


def tensor_hash(arr: np.ndarray) -> str:
    """SHA-256 of dtype, shape and contents; equal for any memory layout.

    The contiguous buffer is hashed in place, with no copy unless ``arr``
    is a non-contiguous view.
    """
    arr = np.asarray(arr)
    digest = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    digest.update(np.ascontiguousarray(arr).data)
    return digest.hexdigest()


def block_shapes(blocks: int, width: int, hidden: int) -> Dict[str, Tuple[int, ...]]:
    """Names and shapes of the weights ``transformer_block`` reads, blocks 0..blocks-1."""
    layout = {"ln1.scale": (width,), "ln1.offset": (width,),
              **{f"attn.{m}": (width, width) for m in ("w_q", "w_k", "w_v", "w_o")},
              "ln2.scale": (width,), "ln2.offset": (width,),
              "mlp.w1": (width, hidden), "mlp.b1": (hidden,),
              "mlp.w2": (hidden, width), "mlp.b2": (width,)}
    return {f"blocks.{b}.{name}": shape for b in range(blocks) for name, shape in layout.items()}


def seeded_weights(shapes: Dict[str, Tuple[int, ...]], seed: int) -> Dict[str, np.ndarray]:
    """Every named tensor of ``shapes``, drawn in order from one stream seeded by ``seed``.

    By the last part of its name: a layer-norm ``scale`` is ones; an
    ``offset`` or bias (``bias``, ``b1``, ``b2``) is zeros; an embedding or
    prompt context (``EMBEDDINGS``) is N(0, 0.02); every other matrix is
    N(0, 1/sqrt(fan_in)), its first dimension being the fan-in. All are in
    the default dtype. Equal shapes and seeds give bit-identical tensors.
    """
    rng = np.random.default_rng(seed)
    weights: Dict[str, np.ndarray] = {}
    for name, shape in shapes.items():
        short = name.rsplit(".", 1)[-1]
        if short == "scale":
            arr = np.ones(shape)
        elif short in ("offset", "bias", "b1", "b2"):
            arr = np.zeros(shape)
        else:
            std = 0.02 if short in EMBEDDINGS else 1.0 / np.sqrt(shape[0])
            arr = rng.normal(0.0, std, size=shape)
        weights[name] = arr.astype(numerics.default_dtype())
    return weights


def init_synthetic(config: BackboneConfig, seed: int) -> Backbone:
    """A backbone whose weights ``seeded_weights`` draws from ``seed``."""
    c = config.channels
    shapes = {
        "patch_embed.weight": (config.patch_size * config.patch_size * 3, c),
        "patch_embed.bias": (c,),
        "pos_embed": (config.tokens + 1, c),
        "cls_token": (c,),
        **block_shapes(STAGES * BLOCKS_PER_STAGE, c, int(round(MLP_RATIO * c))),
    }
    return Backbone(config=config, weights=seeded_weights(shapes, seed))
