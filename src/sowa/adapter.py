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

Every function takes one image's (L, C) tokens or a stacked (B, L, C) batch;
the windows of all images of a batch go through one attention call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import autodiff as ag
from .backbone import AttentionWeights, seeded_weights
from .errors import ConfigError, UsageError


@dataclass
class WindowGrid:
    """Tokens regrouped into non-overlapping windows, row-major both ways."""

    windows: np.ndarray  # (num_windows, h*w, C), or (B, num_windows, h*w, C) for a stack
    window_dims: Tuple[int, int]
    grid_dims: Tuple[int, int]


@dataclass
class AdapterParams:
    """Trainable per-stage projection; everything else in the adapter is frozen."""

    weight: ag.Var  # (C_vis, C_text)
    bias: ag.Var  # (C_text,)


def new_adapter_params(c_vis: int, c_text: int, seed: int) -> AdapterParams:
    init = seeded_weights({"weight": (c_vis, c_text), "bias": (c_text,)}, seed)
    return AdapterParams(*(ag.Var(init[n], requires_grad=True) for n in ("weight", "bias")))


def window_partition(tokens: np.ndarray, grid_h: int, grid_w: int, h: int, w: int) -> WindowGrid:
    """Tile an (L, C) row-major token grid, or each grid of a (B, L, C)
    stack, into (H/h * W/w) windows: (num_windows, h*w, C) or
    (B, num_windows, h*w, C).

    Window (r, c) holds tokens {(r*h + i, c*w + j)}; the multiset of token
    rows is unchanged, only regrouped.
    """
    tokens = np.asarray(tokens)
    if tokens.ndim not in (2, 3) or tokens.shape[-2] != grid_h * grid_w:
        raise UsageError(
            f"expected ({grid_h * grid_w}, C) tokens for a {grid_h}x{grid_w} grid, "
            f"or a stack of them, got {tokens.shape}"
        )
    if h < 1 or w < 1 or grid_h % h != 0 or grid_w % w != 0:
        raise ConfigError(f"window {h}x{w} does not tile token grid {grid_h}x{grid_w}")
    *lead, _, c = tokens.shape
    grid = tokens.reshape(*lead, grid_h // h, h, grid_w // w, w, c)
    k = len(lead)
    windows = grid.transpose(*range(k), k, k + 2, k + 1, k + 3, k + 4)
    windows = windows.reshape(*lead, -1, h * w, c)
    return WindowGrid(windows=windows, window_dims=(h, w), grid_dims=(grid_h, grid_w))


def window_reverse(wg: WindowGrid) -> np.ndarray:
    """Exact inverse of window_partition (bit-exact round trip), stacks included."""
    h, w = wg.window_dims
    grid_h, grid_w = wg.grid_dims
    windows = np.asarray(wg.windows)
    num = (grid_h // h) * (grid_w // w)
    if windows.ndim not in (3, 4) or windows.shape[-3:-1] != (num, h * w):
        raise UsageError(
            f"inconsistent window grid: windows {windows.shape}, "
            f"dims {h}x{w} over {grid_h}x{grid_w}"
        )
    *lead, _, _, c = windows.shape
    k = len(lead)
    grid = windows.reshape(*lead, grid_h // h, grid_w // w, h, w, c)
    grid = grid.transpose(*range(k), k, k + 2, k + 1, k + 3, k + 4)
    return grid.reshape(*lead, grid_h * grid_w, c)


def attended_features(
    tokens: np.ndarray,
    weights: AttentionWeights,
    grid_dims: Tuple[int, int],
    window: Tuple[int, int],
    mode: str = "vv",
) -> np.ndarray:
    """partition -> batched per-window attention -> reverse, as one (L, C) map
    or, for a (B, L, C) stack, one (B, L, C) stack of maps.

    Every window of every image goes through one attention call.
    """
    wg = window_partition(tokens, grid_dims[0], grid_dims[1], window[0], window[1])
    windows = wg.windows
    wg.windows = ag.attention(
        windows.reshape(-1, *windows.shape[-2:]),
        weights.w_q, weights.w_k, weights.w_v, weights.w_o, weights.heads, mode,
    ).reshape(windows.shape)
    return window_reverse(wg)


def project_tokens(weight, bias, tokens):
    """Trainable affine map plus row normalization.

    Given a stage's parameter Vars it builds graph nodes; given their arrays
    it returns an array.
    """
    return ag.l2_normalize_rows(ag.add(ag.matmul(tokens, weight), bias))
