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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import autodiff as ag
from . import numerics
from .backbone import AttentionWeights
from .errors import ConfigError, UsageError


@dataclass
class WindowGrid:
    """Tokens regrouped into non-overlapping windows, row-major both ways."""

    windows: np.ndarray  # (num_windows, h*w, C)
    window_dims: Tuple[int, int]
    grid_dims: Tuple[int, int]


@dataclass
class AdapterParams:
    """Trainable per-stage projection; everything else in the adapter is frozen."""

    weight: ag.Var  # (C_vis, C_text)
    bias: ag.Var  # (C_text,)


def new_adapter_params(c_vis: int, c_text: int, seed: int) -> AdapterParams:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    dtype = numerics.default_dtype()
    weight = rng.normal(0.0, 1.0 / np.sqrt(c_vis), size=(c_vis, c_text)).astype(dtype)
    bias = np.zeros(c_text, dtype=dtype)
    return AdapterParams(
        weight=ag.Var(weight, requires_grad=True),
        bias=ag.Var(bias, requires_grad=True),
    )


def window_partition(tokens: np.ndarray, grid_h: int, grid_w: int, h: int, w: int) -> WindowGrid:
    """Tile an (L, C) row-major token grid into (H/h * W/w) windows.

    Window (r, c) holds tokens {(r*h + i, c*w + j)}; the multiset of token
    rows is unchanged, only regrouped.
    """
    tokens = np.asarray(tokens)
    if tokens.ndim != 2 or tokens.shape[0] != grid_h * grid_w:
        raise UsageError(
            f"expected ({grid_h * grid_w}, C) tokens for a {grid_h}x{grid_w} grid, "
            f"got {tokens.shape}"
        )
    if h < 1 or w < 1 or grid_h % h != 0 or grid_w % w != 0:
        raise ConfigError(f"window {h}x{w} does not tile token grid {grid_h}x{grid_w}")
    c = tokens.shape[1]
    grid = tokens.reshape(grid_h // h, h, grid_w // w, w, c)
    windows = grid.transpose(0, 2, 1, 3, 4).reshape(-1, h * w, c)
    return WindowGrid(windows=windows, window_dims=(h, w), grid_dims=(grid_h, grid_w))


def window_reverse(wg: WindowGrid) -> np.ndarray:
    """Exact inverse of window_partition (bit-exact round trip)."""
    h, w = wg.window_dims
    grid_h, grid_w = wg.grid_dims
    windows = np.asarray(wg.windows)
    num = (grid_h // h) * (grid_w // w)
    if windows.ndim != 3 or windows.shape[0] != num or windows.shape[1] != h * w:
        raise UsageError(
            f"inconsistent window grid: windows {windows.shape}, "
            f"dims {h}x{w} over {grid_h}x{grid_w}"
        )
    c = windows.shape[2]
    grid = windows.reshape(grid_h // h, grid_w // w, h, w, c).transpose(0, 2, 1, 3, 4)
    return grid.reshape(grid_h * grid_w, c)


def attended_features(
    tokens: np.ndarray,
    weights: AttentionWeights,
    grid_dims: Tuple[int, int],
    window: Tuple[int, int],
    mode: str = "vv",
) -> np.ndarray:
    """partition -> batched per-window attention -> reverse, as one (L, C) map."""
    wg = window_partition(tokens, grid_dims[0], grid_dims[1], window[0], window[1])
    wg.windows = ag.attention(
        wg.windows, weights.w_q, weights.w_k, weights.w_v, weights.w_o, weights.heads, mode
    )
    return window_reverse(wg)


def project_tokens(weight, bias, tokens):
    """Trainable affine map plus row normalization.

    Given a stage's parameter Vars it builds graph nodes; given their arrays
    it returns an array.
    """
    return ag.l2_normalize_rows(ag.add(ag.matmul(tokens, weight), bias))
