"""Memory bank of reference features and few-shot anomaly scoring.

The bank stores the adapter outputs of K normal reference images at each of
the four stages. A query token's per-level distance is one minus its best
cosine similarity over every reference token at that level; the four level
maps are summed and upsampled to pixel resolution, then blended with the
zero-shot map.

Distances below SELF_MATCH_TOLERANCE snap to exactly zero so that querying a
bank member yields an identically-zero map despite float32 rounding of
normalized features.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from . import numerics
from .errors import UsageError
from .fusion import AnomalyMap

SELF_MATCH_TOLERANCE = 1e-6


@dataclass
class MemoryBank:
    """Per-stage reference token features; immutable after build."""

    stages: List[np.ndarray]  # 4 arrays of shape (K * L, C_text)
    image_ids: List[str]

    def __post_init__(self):
        if len(self.stages) != 4:
            raise UsageError(f"memory bank needs 4 stages, got {len(self.stages)}")
        for arr in self.stages:
            arr.setflags(write=False)


@dataclass
class FewShotMap:
    """Per-level distance maps on the token grid plus their pixel-level sum."""

    level_maps: np.ndarray  # (4, grid_h, grid_w), distances in [0, 2]
    few: np.ndarray  # (imageH, imageW), sum of upsampled level maps
    grid: Tuple[int, int]


def build_memory_bank(
    reference_features: Sequence[Sequence[np.ndarray]],
    image_ids: Sequence[str] | None = None,
) -> MemoryBank:
    """Stack per-image stage features (each 4 x (L, C)) into one bank.

    Duplicate references are kept as-is; the bank is content-transparent.
    """
    refs = list(reference_features)
    if not refs:
        raise UsageError("memory bank needs at least one reference image")
    stages = []
    for level in range(4):
        blocks = [np.asarray(r[level]) for r in refs]
        stages.append(np.concatenate(blocks, axis=0).copy())
    ids = list(image_ids) if image_ids is not None else [str(i) for i in range(len(refs))]
    return MemoryBank(stages=stages, image_ids=ids)


def few_shot_map(
    query_features: Sequence[np.ndarray],
    bank: MemoryBank,
    grid: Tuple[int, int],
    image_dims: Tuple[int, int],
) -> FewShotMap:
    """Min cosine distance per token per level, summed and upsampled.

    Both query rows and bank rows are expected unit-norm.
    """
    if len(query_features) != 4:
        raise UsageError(f"expected 4 query stages, got {len(query_features)}")
    grid_h, grid_w = grid
    levels = []
    for level in range(4):
        q = np.asarray(query_features[level])
        refs = bank.stages[level]
        if q.shape[1] != refs.shape[1]:
            raise UsageError(
                f"level {level}: query width {q.shape[1]} != bank width {refs.shape[1]}"
            )
        if q.shape[0] != grid_h * grid_w:
            raise UsageError(
                f"level {level}: {q.shape[0]} tokens do not fill grid {grid_h}x{grid_w}"
            )
        best = (q @ refs.T).max(axis=1)
        dist = 1.0 - best
        dist[np.abs(dist) < SELF_MATCH_TOLERANCE] = 0.0
        dist = np.clip(dist, 0.0, 2.0)
        levels.append(dist.reshape(grid_h, grid_w))
    level_maps = np.stack(levels)
    total = level_maps.sum(axis=0)
    few = numerics.bilinear_upsample(total, image_dims[0], image_dims[1])
    return FewShotMap(level_maps=level_maps, few=few, grid=grid)


def combine_maps(zero_map: AnomalyMap, few: FewShotMap, beta: float = 0.5) -> AnomalyMap:
    """Convex blend of the zero-shot map with the normalized few-shot map.

    The few-shot sum is divided by its analytic maximum 4 (four levels at
    distance 1 under non-negative similarities) and clipped into [0, 1]
    before blending.
    """
    if not 0.0 <= beta <= 1.0:
        raise UsageError(f"beta must be in [0, 1], got {beta}")
    if zero_map.scores.shape != few.few.shape:
        raise UsageError(
            f"map dims differ: zero {zero_map.scores.shape} vs few {few.few.shape}"
        )
    few_norm = np.clip(few.few / 4.0, 0.0, 1.0)
    combined = (1.0 - beta) * zero_map.scores + beta * few_norm
    return AnomalyMap(scores=combined, token_logits=zero_map.token_logits)
