"""Window-attention adapter: partition, frozen value-value attention per
window, reverse, then a trainable affine projection into the text feature
space.

The attention projections are injected from the backbone and never updated.
The per-window attention is the shared ``autodiff.attention`` in ``vv`` mode:
scores come from the value vectors against themselves, so the pre-softmax
score matrix is symmetric, and the query/key matrices are used only in the
``qkv`` ablation mode. Only the per-stage projection (weight + bias) is
trainable, and a ``linear`` adapter kind skips the attention entirely for the
corresponding ablation.

Every function takes a stacked (B, L, C) batch of token grids only; one
image's grid is a stack of one. The windows of all images of a batch, or of
each part of a large one, go through one attention call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from . import autodiff as ag
from . import numerics
from .backbone import AttentionWeights, seeded_weights
from .errors import ConfigError, UsageError


@dataclass
class AdapterParams:
    """Trainable per-stage projection; everything else in the adapter is frozen."""

    weight: ag.Var  # (C_vis, C_text)
    bias: ag.Var  # (C_text,)


def new_adapter_params(c_vis: int, c_text: int, seed: int) -> AdapterParams:
    init = seeded_weights({"weight": (c_vis, c_text), "bias": (c_text,)}, seed)
    return AdapterParams(*(ag.Var(init[n], requires_grad=True) for n in ("weight", "bias")))


def window_partition(tokens: np.ndarray, grid_h: int, grid_w: int, h: int, w: int) -> np.ndarray:
    """Tile each row-major grid of a (B, L, C) stack into (H/h * W/w)
    windows: (B, num_windows, h*w, C).

    Window (r, c) holds tokens {(r*h + i, c*w + j)}; the multiset of token
    rows is unchanged, only regrouped.
    """
    tokens = np.asarray(tokens)
    if tokens.ndim != 3 or tokens.shape[1] != grid_h * grid_w:
        raise UsageError(
            f"expected a (B, {grid_h * grid_w}, C) stack of tokens for a "
            f"{grid_h}x{grid_w} grid, got {tokens.shape}"
        )
    if h < 1 or w < 1 or grid_h % h != 0 or grid_w % w != 0:
        raise ConfigError(f"window {h}x{w} does not tile token grid {grid_h}x{grid_w}")
    b, _, c = tokens.shape
    grid = tokens.reshape(b, grid_h // h, h, grid_w // w, w, c)
    return grid.transpose(0, 1, 3, 2, 4, 5).reshape(b, -1, h * w, c)


def window_reverse(windows: np.ndarray, grid_h: int, grid_w: int, h: int, w: int) -> np.ndarray:
    """Exact inverse of ``window_partition`` with the same grid and window
    dims (a bit-exact round trip): (B, num_windows, h*w, C) to (B, L, C)."""
    windows = np.asarray(windows)
    num = (grid_h // h) * (grid_w // w)
    if windows.ndim != 4 or windows.shape[1:3] != (num, h * w):
        raise UsageError(
            f"inconsistent window grid: windows {windows.shape}, "
            f"dims {h}x{w} over {grid_h}x{grid_w}"
        )
    b, _, _, c = windows.shape
    grid = windows.reshape(b, grid_h // h, grid_w // w, h, w, c)
    return grid.transpose(0, 1, 3, 2, 4, 5).reshape(b, grid_h * grid_w, c)


def attended_features(
    tokens: np.ndarray,
    weights: AttentionWeights,
    grid_dims: Tuple[int, int],
    window: Tuple[int, int],
    mode: str = "vv",
) -> np.ndarray:
    """partition -> batched per-window attention -> reverse, from a (B, L, C)
    stack of token grids to a (B, L, C) stack of maps.

    Every window of every image of a part goes through one attention call;
    the windows of a stack of at least two ``numerics.CHUNK_TOKENS`` parts
    are attended and reversed in parts on ``numerics.WORKERS`` threads,
    with the same bits.
    """
    dims = (*grid_dims, *window)
    windows = window_partition(tokens, *dims)

    def attend(part: np.ndarray) -> List[np.ndarray]:
        attended = ag.attention(
            part.reshape(-1, *part.shape[2:]),
            weights.w_q, weights.w_k, weights.w_v, weights.w_o, weights.heads, mode,
        )
        return [window_reverse(attended.reshape(part.shape), *dims)]

    return numerics.map_image_parts(attend, windows, grid_dims[0] * grid_dims[1])[0]


def project_tokens(weight, bias, tokens):
    """Trainable affine map plus row normalization.

    Given a stage's parameter Vars it builds graph nodes; given their arrays
    it returns an array.
    """
    return ag.l2_normalize_rows(ag.add(ag.matmul(tokens, weight), bias))
