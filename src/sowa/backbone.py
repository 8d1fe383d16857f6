"""Frozen vision-transformer feature extractor, and the one init rule and
block layout that build every model tensor.

A seeded, desk-scale stand-in for a large pretrained visual encoder: pre-norm
blocks with QKV attention, a class token carried through the whole stack,
and four stage outputs (the patch tokens after the last block of each
quarter of the stack), held as one (B, STAGES, L, C) array. Attention
projections are bias-free so the stages' (W_q, W_k, W_v, W_o) quadruples
can be handed to the adapter as-is, stacked (STAGES, C, C). Unlike CLIP's,
the stand-in's layer norms have no affine scale and offset, and its MLPs
and patch embedding no biases: frozen at their init of ones and zeros,
they would only multiply by one and add zero.

``Backbone.forward`` takes a stack of images only, as every function below
the public API does: a single image is a stack of one. Only the public
edges ``SowaModel.predict``, ``fusion.anomaly_map``, ``fewshot.few_shot_map``
and ``combine_maps``, and ``numerics.bilinear_upsample`` take one image. A
stack runs through every block along its leading image axis, with each
per-image product the same BLAS call as on that image alone, so an image's
features do not depend on the stack it was run in, nor on the thread: a
large stack runs in parts on two threads (``numerics.map_image_parts``).

One init rule, ``seeded_weights``, draws every model tensor, frozen or
trainable: the adapter bias is zeros, embeddings and prompt contexts
N(0, 0.02), every other matrix N(0, 1/sqrt(fan_in)), all in the default
dtype. ``block_shapes`` is the one weight layout of a
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
# Largest pixel magnitude ``Backbone.forward`` accepts; a larger one, NaN or
# an infinity raises ``UsageError``. Float32 layer norm squares the embedded
# tokens, so its variance overflows first: on the patch that maximises one
# embedding channel, tiled over the image, outputs and training gradients
# stayed finite up to 1e17 at 64 and 224 px in both attention modes, and
# first overflowed at 1e18 (64 px) and 3.2e17 (224 px). The limit keeps a
# factor of 300 below that.
PIXEL_LIMIT = 1e15
# tensors drawn from N(0, 0.02) rather than N(0, 1/sqrt(fan_in))
EMBEDDINGS = ("pos_embed", "cls_token", "embed_table", "contexts")


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
    _stage_weights: AttentionWeights = field(init=False, repr=False)

    def __post_init__(self):
        # the last block of every stage holds views of one (STAGES, C, C)
        # stack per matrix, so the adapter's weights are stacked once and
        # share their bytes with the blocks, which ``frozen_hash`` covers
        last = [(stage + 1) * BLOCKS_PER_STAGE - 1 for stage in range(STAGES)]
        stacks = []
        for m in ("w_q", "w_k", "w_v", "w_o"):
            names = [f"blocks.{b}.attn.{m}" for b in last]
            stacks.append(np.stack([self.weights[n] for n in names]))
            self.weights.update(zip(names, stacks[-1]))
        self._stage_weights = AttentionWeights(*stacks, heads=self.config.heads)
        for arr in [*self.weights.values(), *stacks]:
            arr.setflags(write=False)

    def stage_attention_weights(self) -> AttentionWeights:
        """(W_q, W_k, W_v, W_o) of the last block of every stage, each a
        read-only (STAGES, C, C) stack in stage order; the same object on
        every call."""
        return self._stage_weights

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

    def forward(self, images) -> Tuple[np.ndarray, np.ndarray]:
        """Run the frozen stack on a (B, S, S, 3) stack of images, given as
        one array or a sequence of images.

        Returns the (B, STAGES, L, C) patch-token stage outputs and the
        (B, C) final class tokens, computed in the weights' dtype. A stack
        of more than ``numerics.CHUNK_TOKENS`` patch tokens runs in parts on
        ``numerics.WORKERS`` threads (``numerics.map_image_parts``). Each
        image's rows equal those of its own stack of one bit for bit, in any
        stack and on any thread. An empty stack, a bare (S, S, 3) image, and
        an image of the wrong shape or with a value that is not finite or
        exceeds ``PIXEL_LIMIT`` in magnitude raise ``UsageError``.
        """
        cfg = self.config
        try:
            with np.errstate(over="ignore"):  # a value beyond the dtype's range casts to inf
                images = np.asarray(images, dtype=self.weights["pos_embed"].dtype)
        except ValueError as exc:  # a sequence of images of differing shapes
            raise UsageError(f"images do not stack into one array: {exc}") from exc
        if images.shape[:1] == (0,):
            raise UsageError("cannot run an empty stack of images")
        expected = (cfg.image_size, cfg.image_size, 3)
        if images.ndim != 4 or images.shape[1:] != expected:
            raise UsageError(f"expected a stack of images of shape {expected}, got {images.shape}")
        flat = images.reshape(len(images), -1)
        # a NaN propagates through max and fails the comparison
        bounded = np.maximum(flat.max(axis=1), -flat.min(axis=1)) <= PIXEL_LIMIT
        if not bounded.all():
            raise UsageError(f"image {int(np.argmin(bounded))} contains non-finite values or "
                             f"a magnitude above PIXEL_LIMIT = {PIXEL_LIMIT:g}")
        return tuple(numerics.map_image_parts(self._blocks, images, cfg.tokens))

    def _blocks(self, images: np.ndarray) -> List[np.ndarray]:
        """Normalise, embed and run every block on a checked stack: the
        (B, STAGES, L, C) stage outputs and the (B, C) class tokens."""
        x = self._embed(self.normalize_image(images))
        stages = np.empty((len(x), STAGES, x.shape[1] - 1, x.shape[2]), dtype=x.dtype)
        for block in range(STAGES * BLOCKS_PER_STAGE):
            x = transformer_block(x, self.weights, block, self.config.heads)
            if (block + 1) % BLOCKS_PER_STAGE == 0:
                stages[:, block // BLOCKS_PER_STAGE] = x[:, 1:]
        return [stages, x[:, 0].copy()]

    def _embed(self, images: np.ndarray) -> np.ndarray:
        """Normalised (B, S, S, 3) pixels to (B, 1 + tokens, C) embedded
        tokens, the class token first."""
        cfg = self.config
        g, p = cfg.grid, cfg.patch_size
        b = len(images)
        patches = images.reshape(b, g, p, g, p, 3).transpose(0, 1, 3, 2, 4, 5)
        patches = patches.reshape(b, cfg.tokens, p * p * 3)
        tokens = patches @ self.weights["patch_embed.weight"]
        cls = np.broadcast_to(self.weights["cls_token"], (b, 1, cfg.channels))
        return np.concatenate([cls, tokens], axis=1) + self.weights["pos_embed"]


def transformer_block(x, weights: Dict[str, np.ndarray], idx: int, heads: int):
    """Pre-norm block ``blocks.{idx}`` of ``weights``: QKV attention, then MLP.

    Shared by the vision backbone and the text encoder; ``x`` is an array or
    a Var (the weights are always constants).
    """
    pre = f"blocks.{idx}"
    attn = [weights[f"{pre}.attn.{m}"] for m in ("w_q", "w_k", "w_v", "w_o")]
    x = ag.add(x, ag.attention(ag.layer_norm(x), *attn, heads, "qkv"))
    h = ag.gelu(ag.matmul(ag.layer_norm(x), weights[f"{pre}.mlp.w1"]))
    return ag.add(x, ag.matmul(h, weights[f"{pre}.mlp.w2"]))


def tensor_bytes(arr: np.ndarray) -> Tuple[np.dtype, Tuple[int, ...], bytes]:
    """dtype, shape and C-order bytes, the content key every cache compares:
    equal for any memory layout; -0.0 differs from 0.0, a NaN equals itself."""
    arr = np.asarray(arr)
    return arr.dtype, arr.shape, arr.tobytes()


def tensor_hash(arr: np.ndarray) -> str:
    """SHA-256 of dtype, shape and contents, for reports; any layout alike.

    The contiguous buffer is hashed in place, with no copy unless ``arr``
    is a non-contiguous view.
    """
    arr = np.asarray(arr)
    digest = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    digest.update(np.ascontiguousarray(arr).data)
    return digest.hexdigest()


def block_shapes(blocks: int, width: int, hidden: int) -> Dict[str, Tuple[int, ...]]:
    """Names and shapes of the weights ``transformer_block`` reads, blocks 0..blocks-1."""
    layout = {**{f"attn.{m}": (width, width) for m in ("w_q", "w_k", "w_v", "w_o")},
              "mlp.w1": (width, hidden), "mlp.w2": (hidden, width)}
    return {f"blocks.{b}.{name}": shape for b in range(blocks) for name, shape in layout.items()}


def seeded_weights(shapes: Dict[str, Tuple[int, ...]], seed: int) -> Dict[str, np.ndarray]:
    """Every named tensor of ``shapes``, drawn in order from one stream seeded by ``seed``.

    By the last part of its name: a ``bias`` is zeros; an embedding or
    prompt context (``EMBEDDINGS``) is N(0, 0.02); every other matrix is
    N(0, 1/sqrt(fan_in)), its first dimension being the fan-in. All are in
    the default dtype. Equal shapes and seeds give bit-identical tensors.
    """
    rng = np.random.default_rng(seed)
    weights: Dict[str, np.ndarray] = {}
    for name, shape in shapes.items():
        short = name.rsplit(".", 1)[-1]
        if short == "bias":
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
        "pos_embed": (config.tokens + 1, c),
        "cls_token": (c,),
        **block_shapes(STAGES * BLOCKS_PER_STAGE, c, int(round(MLP_RATIO * c))),
    }
    return Backbone(config=config, weights=seeded_weights(shapes, seed))
