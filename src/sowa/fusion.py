"""Hierarchical fusion of adapted stage features with text features.

Stage similarity logits are summed first, over the stage axis, every stage
weighing the same, and the per-token two-way softmax is applied after the
sum; the abnormal channel is then upsampled to pixel resolution to form the
anomaly map. The image-level score comes from the class token through a
frozen projection against the same text rows.

``fuse``, ``abnormal_probability_map`` and ``image_score`` take stacks only;
``anomaly_map`` takes one image's (L, 2) logits, as a stack of one.

The two softmax temperatures are constants, ``TAU`` for the stage logits and
``TAU_CLS`` for the class score.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import autodiff as ag
from . import numerics
from .backbone import STAGES
from .errors import UsageError

TAU = 1.0
TAU_CLS = 1.0


@dataclass
class AnomalyMap:
    """Dense per-pixel anomaly scores in [0, 1]."""

    scores: np.ndarray  # (imageH, imageW), or (B, imageH, imageW) for a stack


def fuse(stage_features, text_features):
    """Sum of per-stage similarity logits: sum_i F*_i T^T / TAU.

    Channel 0 scores the normal row, channel 1 the abnormal row. Accepts a
    Var (training) or an array of (B, STAGES, L, C) stage features: one
    product, then a sum over the stage axis. Returns (B, L, 2) logits.
    """
    shape = tuple(stage_features.shape)
    if len(shape) != 4 or shape[1] != STAGES:
        raise UsageError(f"expected (B, {STAGES}, L, C) stage features, got {shape}")
    logits = ag.matmul(stage_features, ag.transpose(text_features, (1, 0)))
    return ag.mul(ag.sum_(logits, axis=1), 1.0 / TAU)


def anomaly_map(logits, grid: Tuple[int, int], image_dims: Tuple[int, int]) -> AnomalyMap:
    """Abnormal-channel probabilities upsampled to image resolution.

    ``abnormal_probability_map`` on plain arrays, as a stack of one: inference
    maps and the maps training differentiates come from one formula.
    """
    logits = logits.data if ag.is_var(logits) else np.asarray(logits)
    grid_h, grid_w = grid
    if logits.shape != (grid_h * grid_w, 2):
        raise UsageError(
            f"expected ({grid_h * grid_w}, 2) logits for a {grid_h}x{grid_w} grid, "
            f"got {logits.shape}"
        )
    return AnomalyMap(scores=abnormal_probability_map(logits[None], grid, image_dims)[0])


def abnormal_probability_map(logits, grid: Tuple[int, int], image_dims: Tuple[int, int]):
    """Differentiable map pipeline: softmax -> reshape -> upsample.

    ``logits`` is a stacked (B, L, 2) batch; the map is (B, H, W).
    """
    grid_h, grid_w = grid
    probs = ag.softmax_last(logits)
    abnormal = ag.reshape(probs[:, :, 1], (probs.shape[0], grid_h, grid_w))
    return numerics.bilinear_upsample(abnormal, *image_dims)


def image_score(class_token: np.ndarray, cls_proj: np.ndarray, text_features):
    """Two-way softmax score of the projected class token; abnormal side.

    ``class_token`` is a (B, C_vis) stack, scored to (B,) scores.
    Differentiable in ``text_features`` when given as a Var.

    Each sample is scored as a (1, C) row through both products: BLAS
    rounds a one-row product differently from a row of a larger one, and
    this keeps a sample's score independent of the batch it is scored in.
    """
    rows = np.asarray(class_token)[:, None, :] @ np.asarray(cls_proj)
    f_cls = ag.l2_normalize_rows(rows)
    sims = ag.mul(ag.matmul(f_cls, ag.transpose(text_features, (1, 0))), 1.0 / TAU_CLS)
    probs = ag.softmax_last(sims)
    return probs[:, 0, 1]
