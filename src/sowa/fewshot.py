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
from .backbone import STAGES
from .errors import UsageError
from .fusion import AnomalyMap

SELF_MATCH_TOLERANCE = 1e-6


@dataclass
class MemoryBank:
    """Per-stage reference token features; immutable after build."""

    stages: List[np.ndarray]  # STAGES arrays of shape (K * L, C_text)
    image_ids: List[str]

    def __post_init__(self):
        if len(self.stages) != STAGES:
            raise UsageError(f"memory bank needs {STAGES} stages, got {len(self.stages)}")
        for arr in self.stages:
            arr.setflags(write=False)


def build_memory_bank(
    reference_features: Sequence[Sequence[np.ndarray]],
    image_ids: Sequence[str] | None = None,
) -> MemoryBank:
    """Stack per-image stage features (each STAGES x (L, C)) into one bank.

    Duplicate references are kept as-is; the bank is content-transparent.
    ``image_ids``, when given, names each reference, one id per image.
    References that are not ``STAGES`` (L, C) arrays of one C raise ``UsageError``.
    """
    refs = list(reference_features)
    if not refs:
        raise UsageError("memory bank needs at least one reference image")
    ids = list(image_ids) if image_ids is not None else [str(i) for i in range(len(refs))]
    if len(ids) != len(refs):
        raise UsageError(f"{len(ids)} image ids for {len(refs)} reference images")
    if any(len(r) != STAGES for r in refs):
        raise UsageError(f"every reference needs {STAGES} stages, got {[len(r) for r in refs]}")
    stages = []
    for level in range(STAGES):
        blocks = [np.asarray(r[level]) for r in refs]
        if any(b.ndim != 2 or b.shape[1] != blocks[0].shape[1] for b in blocks):
            raise UsageError(f"level {level}: bad reference shapes {[b.shape for b in blocks]}")
        stages.append(np.concatenate(blocks, axis=0))  # a new array, which the bank freezes
    return MemoryBank(stages=stages, image_ids=ids)


def few_shot_map(
    query_features: Sequence[np.ndarray],
    bank: MemoryBank,
    grid: Tuple[int, int],
    image_dims: Tuple[int, int],
) -> np.ndarray:
    """Min cosine distance per token per level, summed over the levels and
    upsampled: an (imageH, imageW) map, or a (B, imageH, imageW) stack.

    ``query_features`` are ``STAGES`` (L, C) arrays or (B, L, C) stacks; a
    query of a stack gets the map it gets on its own, bit for bit. Both
    query rows and bank rows are expected unit-norm.
    """
    if len(query_features) != STAGES:
        raise UsageError(f"expected {STAGES} query stages, got {len(query_features)}")
    grid_h, grid_w = grid
    levels = []
    for level in range(STAGES):
        q = np.asarray(query_features[level])
        refs = bank.stages[level]
        if q.ndim not in (2, 3) or q.shape[-2] != grid_h * grid_w:
            raise UsageError(
                f"level {level}: query of shape {q.shape} does not fill grid {grid_h}x{grid_w}"
            )
        if q.shape[-1] != refs.shape[1]:
            raise UsageError(
                f"level {level}: query width {q.shape[-1]} != bank width {refs.shape[1]}"
            )
        best = (q @ refs.T).max(axis=-1)
        dist = 1.0 - best
        dist[np.abs(dist) < SELF_MATCH_TOLERANCE] = 0.0
        dist = np.clip(dist, 0.0, 2.0)
        levels.append(dist.reshape(*q.shape[:-2], grid_h, grid_w))
    total = np.stack(levels, axis=-3).sum(axis=-3)
    return numerics.bilinear_upsample(total, image_dims[0], image_dims[1])


def combine_maps(zero_map: AnomalyMap, few: np.ndarray, beta: float = 0.5) -> AnomalyMap:
    """Convex blend of the zero-shot map with the normalized ``few_shot_map``,
    for one map or a (B, H, W) stack of them.

    The few-shot sum is divided by its analytic maximum ``STAGES`` (every
    level at distance 1 under non-negative similarities) and clipped into
    [0, 1] before blending.
    """
    numerics.check_float(beta, "beta", 0, 1)
    if zero_map.scores.shape != few.shape:
        raise UsageError(f"map dims differ: zero {zero_map.scores.shape} vs few {few.shape}")
    few_norm = np.clip(few / STAGES, 0.0, 1.0)
    combined = (1.0 - beta) * zero_map.scores + beta * few_norm
    return AnomalyMap(scores=combined)
