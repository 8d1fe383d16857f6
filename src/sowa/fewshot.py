"""Memory bank of reference features and few-shot anomaly scoring.

The bank stores the adapter outputs of K normal reference images at each of
the four stages, as one (STAGES, K * L, C) array. A query token's per-level
distance is one minus its best cosine similarity over every reference token
at that level; the four level maps are summed and upsampled to pixel
resolution, then blended with the zero-shot map. The levels are one array
axis, so every level of a query is one batched product, and the queries of
a stack are scored in parts on ``numerics.WORKERS`` threads.

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
    """Reference token features of every stage; immutable after build.

    The bank freezes a copy of ``features`` that it owns, so the caller's
    array stays writable. Anything but a (STAGES, rows, C) array whose rows
    are a whole number of images per id raises ``UsageError``.
    """

    features: np.ndarray  # (STAGES, K * L, C_text), image-major rows within a stage
    image_ids: List[str]

    def __post_init__(self):
        shape, k = np.shape(self.features), len(self.image_ids)
        if len(shape) != 3 or shape[0] != STAGES or k == 0 or shape[1] == 0 or shape[1] % k:
            raise UsageError(f"memory bank needs a ({STAGES}, rows, C) array with rows a "
                             f"multiple of its {k} image ids, got shape {shape}")
        self.features = np.array(self.features)
        self.features.setflags(write=False)


def build_memory_bank(reference_features, image_ids: Sequence[str] | None = None) -> MemoryBank:
    """Join the references' stage features, a (K, STAGES, L, C) stack or K
    (STAGES, L, C) arrays, into one bank.

    Duplicate references are kept as-is; the bank is content-transparent.
    ``image_ids``, when given, names each reference, one id per image.
    References that do not stack into one (K, STAGES, L, C) array raise
    ``UsageError``.
    """
    try:
        refs = np.asarray(reference_features)
    except ValueError as exc:  # references of differing shapes
        raise UsageError(f"references do not stack into one array: {exc}") from exc
    if len(refs) == 0:
        raise UsageError("memory bank needs at least one reference image")
    if refs.ndim != 4 or refs.shape[1] != STAGES:
        raise UsageError(f"references must be a (K, {STAGES}, L, C) stack, got {refs.shape}")
    ids = list(image_ids) if image_ids is not None else [str(i) for i in range(len(refs))]
    if len(ids) != len(refs):
        raise UsageError(f"{len(ids)} image ids for {len(refs)} reference images")
    return MemoryBank(refs.swapaxes(0, 1).reshape(STAGES, -1, refs.shape[-1]), image_ids=ids)


def few_shot_map(
    query_features,
    bank: MemoryBank,
    grid: Tuple[int, int],
    image_dims: Tuple[int, int],
) -> np.ndarray:
    """Min cosine distance per token per level, summed over the levels and
    upsampled: an (imageH, imageW) map, or a (B, imageH, imageW) stack.

    ``query_features`` is one (STAGES, L, C) query or a (B, STAGES, L, C)
    stack; a query of a stack gets the map it gets on its own, bit for bit.
    Both query rows and bank rows are expected unit-norm. The queries of a
    stack are scored one at a time, in parts on ``numerics.WORKERS``
    threads (``numerics.map_image_parts``), so the (STAGES, L, K * L)
    similarities of one query are the largest temporary of each thread. A
    ``bank`` that is not a ``MemoryBank`` raises ``UsageError``.
    """
    if not isinstance(bank, MemoryBank):
        raise UsageError(f"bank must be a MemoryBank, got {type(bank).__name__}")
    grid_h, grid_w = grid
    q = np.asarray(query_features)
    refs = bank.features
    if q.ndim not in (3, 4) or q.shape[-3:-1] != (STAGES, grid_h * grid_w):
        raise UsageError(f"query of shape {q.shape} is not (B, {STAGES}, L, C) or "
                         f"({STAGES}, L, C) with L filling grid {grid_h}x{grid_w}")
    if q.shape[-1] != refs.shape[-1]:
        raise UsageError(f"query width {q.shape[-1]} != bank width {refs.shape[-1]}")
    bank_t = refs.swapaxes(-1, -2)

    def best_matches(part):  # one (STAGES, L, C) query at a time
        return [np.stack([(query @ bank_t).max(axis=-1) for query in part])]

    stack = q.reshape(-1, *q.shape[-3:])
    best = numerics.map_image_parts(best_matches, stack, grid_h * grid_w)[0].reshape(q.shape[:-1])
    dist = 1.0 - best
    dist[np.abs(dist) < SELF_MATCH_TOLERANCE] = 0.0
    dist = np.clip(dist, 0.0, 2.0)
    total = dist.reshape(*q.shape[:-2], grid_h, grid_w).sum(axis=-3)
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
