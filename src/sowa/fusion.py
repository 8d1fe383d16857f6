"""Hierarchical fusion of adapted stage features with text features.

Stage similarity logits are summed with per-stage weights first and the
per-token two-way softmax is applied after the sum; the abnormal channel is
then upsampled to pixel resolution (and optionally blurred) to form the
anomaly map. The image-level score comes from the class token through a
frozen projection against the same text rows.

The two softmax temperatures are constants, ``TAU`` for the stage logits and
``TAU_CLS`` for the class score; ``FusionConfig`` holds what a run varies,
the stage weights and the map's blur.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from . import autodiff as ag
from . import numerics
from .errors import ConfigError, UsageError

TAU = 1.0
TAU_CLS = 1.0


@dataclass(frozen=True)
class FusionConfig:
    alpha: Tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    sigma: float = 0.0

    def __post_init__(self):
        if len(self.alpha) != 4 or not all(np.isfinite(self.alpha)):
            raise ConfigError(f"alpha must be 4 finite weights, got {self.alpha}")
        if self.sigma < 0:
            raise ConfigError("smoothing sigma must be >= 0")


@dataclass
class AnomalyMap:
    """Dense per-pixel anomaly scores in [0, 1]."""

    scores: np.ndarray  # (imageH, imageW)


def fuse(stage_features: Sequence, text_features, cfg: FusionConfig):
    """Weighted sum of per-stage similarity logits: sum_i alpha_i F*_i T^T / TAU.

    Channel 0 scores the normal row, channel 1 the abnormal row. Accepts
    Vars (training) or arrays, as (L, C) or a stacked (B, L, C) batch;
    stages must agree on token count.
    """
    if len(stage_features) != 4:
        raise UsageError(f"expected 4 stage feature maps, got {len(stage_features)}")
    lengths = {f.shape[-2] for f in stage_features}
    if len(lengths) != 1:
        raise UsageError(f"stages disagree on token count: {sorted(lengths)}")
    text_t = ag.transpose(text_features, (1, 0))
    logits = None
    for alpha_i, feats in zip(cfg.alpha, stage_features):
        term = ag.mul(ag.matmul(feats, text_t), alpha_i / TAU)
        logits = term if logits is None else ag.add(logits, term)
    return logits


def anomaly_map(
    logits,
    grid: Tuple[int, int],
    image_dims: Tuple[int, int],
    cfg: FusionConfig,
) -> AnomalyMap:
    """Abnormal-channel probabilities upsampled to image resolution.

    ``abnormal_probability_map`` run on plain arrays, so inference maps and
    the maps training differentiates come from one formula.
    """
    logits = logits.data if ag.is_var(logits) else np.asarray(logits)
    grid_h, grid_w = grid
    if logits.shape != (grid_h * grid_w, 2):
        raise UsageError(
            f"expected ({grid_h * grid_w}, 2) logits for a {grid_h}x{grid_w} grid, "
            f"got {logits.shape}"
        )
    return AnomalyMap(scores=abnormal_probability_map(logits, grid, image_dims, cfg))


def abnormal_probability_map(logits, grid: Tuple[int, int], image_dims: Tuple[int, int], cfg: FusionConfig):
    """Differentiable map pipeline: softmax -> reshape -> upsample -> blur.

    ``logits`` is (L, 2) or a stacked (B, L, 2) batch; the map is (H, W) or
    (B, H, W) accordingly.
    """
    grid_h, grid_w = grid
    probs = ag.softmax_last(logits)
    abnormal = ag.reshape(probs[..., 1], (*probs.shape[:-2], grid_h, grid_w))
    dtype = abnormal.dtype
    row_op = numerics.linear_resample_matrix(grid_h, image_dims[0]).astype(dtype)
    col_op = numerics.linear_resample_matrix(grid_w, image_dims[1]).astype(dtype)
    out = ag.matmul(ag.matmul(row_op, abnormal), col_op.T)
    if cfg.sigma > 0:
        blur_r = numerics.gaussian_blur_matrix(image_dims[0], cfg.sigma).astype(dtype)
        blur_c = numerics.gaussian_blur_matrix(image_dims[1], cfg.sigma).astype(dtype)
        out = ag.matmul(ag.matmul(blur_r, out), blur_c.T)
    return out


def image_score(class_token: np.ndarray, cls_proj: np.ndarray, text_features):
    """Two-way softmax score of the projected class token; abnormal side.

    ``class_token`` is (C_vis,) for one scalar score or (B, C_vis) for B
    scores. Differentiable in ``text_features`` when given as a Var.
    """
    f_cls = ag.l2_normalize_rows(np.asarray(class_token) @ np.asarray(cls_proj))
    sims = ag.mul(ag.matmul(f_cls, ag.transpose(text_features, (1, 0))), 1.0 / TAU_CLS)
    probs = ag.softmax_last(sims)
    return probs[..., 1]
