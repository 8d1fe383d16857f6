"""Frozen vision-transformer feature extractor.

A seeded, desk-scale stand-in for a large pretrained visual encoder: standard
pre-norm blocks with QKV attention, a class token carried through the whole
stack, and four stage outputs (the patch tokens after the last block of each
quarter of the stack). Attention projections are bias-free so a stage's
(W_q, W_k, W_v, W_o) quadruple can be handed to the adapters as-is.

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


@dataclass(frozen=True)
class BackboneConfig:
    image_size: int = 64
    patch_size: int = 8
    channels: int = 64
    blocks_per_stage: int = 2
    heads: int = 4
    mlp_ratio: float = 4.0
    norm_mean: Tuple[float, float, float] = (0.5, 0.5, 0.5)
    norm_std: Tuple[float, float, float] = (0.25, 0.25, 0.25)

    def __post_init__(self):
        if self.image_size < 1 or self.patch_size < 1:
            raise ConfigError("image_size and patch_size must be positive")
        if self.image_size % self.patch_size != 0:
            raise ConfigError(
                f"image_size {self.image_size} not divisible by patch_size {self.patch_size}"
            )
        if self.channels % self.heads != 0:
            raise ConfigError(
                f"channels {self.channels} not divisible by heads {self.heads}"
            )
        if self.blocks_per_stage < 1:
            raise ConfigError("blocks_per_stage must be >= 1")
        if self.mlp_ratio <= 0:
            raise ConfigError("mlp_ratio must be positive")
        norms = (self.norm_mean, self.norm_std)
        if any(len(v) != 3 or not all(np.isfinite(v)) for v in norms) or min(self.norm_std) <= 0:
            raise ConfigError(f"norm_mean and norm_std need 3 finite values, norm_std > 0: {norms}")

    @property
    def grid(self) -> int:
        return self.image_size // self.patch_size

    @property
    def tokens(self) -> int:
        return self.grid * self.grid

    @property
    def total_blocks(self) -> int:
        return STAGES * self.blocks_per_stage


@dataclass
class StageFeatures:
    """Patch-token features after each stage, plus the final class token."""

    stages: List[np.ndarray]  # 4 arrays of shape (L, C)
    class_token: np.ndarray  # (C,)


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
        block = stage * self.config.blocks_per_stage - 1
        w = self.weights
        return AttentionWeights(
            w_q=w[f"blocks.{block}.attn.w_q"],
            w_k=w[f"blocks.{block}.attn.w_k"],
            w_v=w[f"blocks.{block}.attn.w_v"],
            w_o=w[f"blocks.{block}.attn.w_o"],
            heads=self.config.heads,
        )

    def normalize_image(self, image: np.ndarray) -> np.ndarray:
        mean = np.asarray(self.config.norm_mean, dtype=image.dtype)
        std = np.asarray(self.config.norm_std, dtype=image.dtype)
        return (image - mean) / std

    def forward(self, image: np.ndarray) -> StageFeatures:
        """Run the frozen stack on one (image_size, image_size, 3) image, in the weights' dtype."""
        cfg = self.config
        image = np.asarray(image, dtype=self.weights["pos_embed"].dtype)
        expected = (cfg.image_size, cfg.image_size, 3)
        if image.shape != expected:
            raise UsageError(f"expected image of shape {expected}, got {image.shape}")
        image = self.normalize_image(image)
        x = self._embed(image)
        stage_outputs: List[np.ndarray] = []
        for block in range(cfg.total_blocks):
            x = transformer_block(x, self.weights, block, cfg.heads)
            if (block + 1) % cfg.blocks_per_stage == 0:
                stage_outputs.append(x[1:].copy())
        return StageFeatures(stages=stage_outputs, class_token=x[0].copy())

    def _embed(self, image: np.ndarray) -> np.ndarray:
        cfg = self.config
        g, p = cfg.grid, cfg.patch_size
        patches = image.reshape(g, p, g, p, 3).transpose(0, 2, 1, 3, 4)
        patches = patches.reshape(cfg.tokens, p * p * 3)
        tokens = patches @ self.weights["patch_embed.weight"] + self.weights["patch_embed.bias"]
        x = np.concatenate([self.weights["cls_token"][None, :], tokens], axis=0)
        return x + self.weights["pos_embed"]


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


def _expected_shapes(cfg: BackboneConfig) -> Dict[str, Tuple[int, ...]]:
    c = cfg.channels
    hidden = int(round(cfg.mlp_ratio * c))
    shapes: Dict[str, Tuple[int, ...]] = {
        "patch_embed.weight": (cfg.patch_size * cfg.patch_size * 3, c),
        "patch_embed.bias": (c,),
        "pos_embed": (cfg.tokens + 1, c),
        "cls_token": (c,),
    }
    for b in range(cfg.total_blocks):
        pre = f"blocks.{b}"
        shapes[f"{pre}.ln1.scale"] = (c,)
        shapes[f"{pre}.ln1.offset"] = (c,)
        shapes[f"{pre}.attn.w_q"] = (c, c)
        shapes[f"{pre}.attn.w_k"] = (c, c)
        shapes[f"{pre}.attn.w_v"] = (c, c)
        shapes[f"{pre}.attn.w_o"] = (c, c)
        shapes[f"{pre}.ln2.scale"] = (c,)
        shapes[f"{pre}.ln2.offset"] = (c,)
        shapes[f"{pre}.mlp.w1"] = (c, hidden)
        shapes[f"{pre}.mlp.b1"] = (hidden,)
        shapes[f"{pre}.mlp.w2"] = (hidden, c)
        shapes[f"{pre}.mlp.b2"] = (c,)
    return shapes


def init_synthetic(config: BackboneConfig, seed: int) -> Backbone:
    """Build a backbone with deterministic seeded weights.

    Matrices are Gaussian with std 1/sqrt(fan_in), embeddings Gaussian with
    std 0.02, norms at identity, biases at zero. Equal seeds give bit-identical
    weights.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    dtype = numerics.default_dtype()
    weights: Dict[str, np.ndarray] = {}
    for name, shape in _expected_shapes(config).items():
        short = name.rsplit(".", 1)[-1]
        if short in ("scale",):
            arr = np.ones(shape)
        elif short in ("offset", "bias", "b1", "b2"):
            arr = np.zeros(shape)
        elif name in ("pos_embed", "cls_token"):
            arr = rng.normal(0.0, 0.02, size=shape)
        else:
            arr = rng.normal(0.0, 1.0 / np.sqrt(shape[0]), size=shape)
        weights[name] = arr.astype(dtype)
    return Backbone(config=config, weights=weights)

