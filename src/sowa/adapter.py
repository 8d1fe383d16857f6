"""Window-attention adapter: partition, frozen value-value attention per
window, reverse, then a trainable affine projection into the text feature
space, for the four backbone stages at once.

The attention projections are injected from the backbone and never updated.
The per-window attention is the shared ``autodiff.attention`` in ``vv`` mode:
scores come from the value vectors against themselves, so the pre-softmax
score matrix is symmetric, and the query/key matrices are used only in the
``qkv`` ablation mode. Only the projection (weight + bias, one slice per
stage) is trainable, and a ``linear`` adapter kind skips the attention
entirely for the corresponding ablation.

The stages are one array axis next to the image axis: every function takes
a (B, STAGES, L, C) stack of token grids, against (STAGES, ...) weights.
Every window of every stage of every image of a batch, or of each part of a
large one, goes through one attention call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from . import autodiff as ag
from . import numerics
from .backbone import STAGES, AttentionWeights, seeded_weights
from .errors import ConfigError, UsageError


@dataclass
class AdapterParams:
    """Trainable projection of every stage; everything else in the adapter is frozen."""

    weight: ag.Var  # (STAGES, C_vis, C_text)
    bias: ag.Var  # (STAGES, C_text)


def new_adapter_params(c_vis: int, c_text: int, seed: int) -> AdapterParams:
    """Stage ``i``'s slices drawn from ``seed + i``, then stacked."""
    shapes = {"weight": (c_vis, c_text), "bias": (c_text,)}
    init = [seeded_weights(shapes, seed + stage) for stage in range(STAGES)]
    return AdapterParams(*(ag.Var(np.stack([w[n] for w in init]), requires_grad=True)
                           for n in shapes))


def window_partition(tokens: np.ndarray, grid_h: int, grid_w: int, h: int, w: int) -> np.ndarray:
    """Tile each row-major grid of a (B, ..., L, C) stack into (H/h * W/w)
    windows: (B, ..., num_windows, h*w, C).

    Window (r, c) holds tokens {(r*h + i, c*w + j)}; the multiset of token
    rows is unchanged, only regrouped.
    """
    tokens = np.asarray(tokens)
    if tokens.ndim < 3 or tokens.shape[-2] != grid_h * grid_w:
        raise UsageError(
            f"expected a (B, ..., {grid_h * grid_w}, C) stack of tokens for a "
            f"{grid_h}x{grid_w} grid, got {tokens.shape}"
        )
    if h < 1 or w < 1 or grid_h % h != 0 or grid_w % w != 0:
        raise ConfigError(f"window {h}x{w} does not tile token grid {grid_h}x{grid_w}")
    *lead, _, c = tokens.shape
    r = len(lead)
    grid = tokens.reshape(*lead, grid_h // h, h, grid_w // w, w, c)
    return grid.transpose(*range(r), r, r + 2, r + 1, r + 3, r + 4).reshape(*lead, -1, h * w, c)


def window_reverse(windows: np.ndarray, grid_h: int, grid_w: int, h: int, w: int) -> np.ndarray:
    """Exact inverse of ``window_partition`` with the same grid and window
    dims (a bit-exact round trip): (B, ..., num_windows, h*w, C) to
    (B, ..., L, C)."""
    windows = np.asarray(windows)
    num = (grid_h // h) * (grid_w // w)
    if windows.ndim < 4 or windows.shape[-3:-1] != (num, h * w):
        raise UsageError(
            f"inconsistent window grid: windows {windows.shape}, "
            f"dims {h}x{w} over {grid_h}x{grid_w}"
        )
    *lead, _, _, c = windows.shape
    r = len(lead)
    grid = windows.reshape(*lead, grid_h // h, grid_w // w, h, w, c)
    return grid.transpose(*range(r), r, r + 2, r + 1, r + 3, r + 4).reshape(*lead, -1, c)


def attended_features(tokens: np.ndarray, weights: AttentionWeights, grid_dims: Tuple[int, int],
                      window: Tuple[int, int], mode: str = "vv") -> np.ndarray:
    """partition -> batched per-window attention -> reverse, from a
    (B, STAGES, L, C) stack of token grids to a (B, STAGES, L, C) stack of
    maps, each stage against its slice of the (STAGES, C, C) ``weights``
    ((C, C) weights serve every grid of a (B, L, C) stack alike).

    Every window of a part goes through one attention call; the windows of
    a stack of at least two ``numerics.CHUNK_TOKENS`` parts are attended
    and reversed in parts on ``numerics.WORKERS`` threads, with the same bits.
    """
    dims = (*grid_dims, *window)
    windows = window_partition(tokens, *dims)
    # a window axis before each weight's (C, C), so that it meets its stage
    w_q, w_k, w_v, w_o = (np.expand_dims(m, -3)
                          for m in (weights.w_q, weights.w_k, weights.w_v, weights.w_o))

    def attend(part: np.ndarray) -> List[np.ndarray]:
        attended = ag.attention(part, w_q, w_k, w_v, w_o, weights.heads, mode)
        return [window_reverse(attended, *dims)]

    return numerics.map_image_parts(attend, windows, grid_dims[0] * grid_dims[1])[0]


def project_tokens(weight, bias, tokens):
    """Trainable affine map plus row normalization: (B, STAGES, L, C_vis)
    tokens against the (STAGES, C_vis, C_text) weight and (STAGES, C_text)
    bias, to (B, STAGES, L, C_text) unit-norm rows.

    Given the parameter Vars it builds graph nodes; given their arrays it
    returns an array. The bias is added as (1, STAGES, 1, C_text), so that
    its gradient is one sum over the image and token axes together.
    """
    bias = ag.reshape(bias, (1, bias.shape[0], 1, bias.shape[1]))
    return ag.l2_normalize_rows(ag.add(ag.matmul(tokens, weight), bias))
