"""Dense-array numerical substrate: normalization, resampling, smoothing.

Arrays are plain numpy ndarrays, row-major, 32-bit floats by default. A 64-bit
mode can be selected (globally or via the ``precision`` context manager) for
finite-difference gradient validation, where float32 noise would swamp the
comparison.

Resampling uses half-pixel-center sampling (no corner alignment) and smoothing
uses reflective padding; both are expressed as explicit 1-D operator matrices
so the same linear maps can be applied forward and transposed (the latter is
what reverse-mode differentiation needs).
"""

from __future__ import annotations

import contextlib
import ctypes

import numpy as np

from .errors import UsageError

_DEFAULT_DTYPE = np.float32

# glibc mallopt parameter ids
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _retain_freed_memory() -> None:
    """Keep freed heap memory for reuse instead of handing it back to the kernel.

    Under glibc's defaults the free top of the heap goes back to the kernel
    once it passes 128 KiB, and each array over a threshold that starts at
    128 KiB gets an mmap of its own, unmapped when the array is freed. A
    forward pass frees and re-allocates the same few MB on every call, so
    each call faulted its temporaries back in page by page: about a third of
    a 224 px ``predict`` ran in the kernel, at a cost that varied with the
    host. Fixed thresholds make later calls reuse the same pages; peak RSS is
    unchanged. C libraries without ``mallopt`` are left as they are.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)  # the largest glibc accepts on 64-bit


_retain_freed_memory()


def set_default_dtype(dtype) -> None:
    """Switch the global float width ('float32' or 'float64')."""
    global _DEFAULT_DTYPE
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise UsageError(f"unsupported dtype {dtype!r}; use float32 or float64")
    _DEFAULT_DTYPE = dt.type


def default_dtype():
    return _DEFAULT_DTYPE


@contextlib.contextmanager
def precision(dtype):
    """Temporarily switch the default float width."""
    previous = _DEFAULT_DTYPE
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(previous)


def linear_resample_matrix(n_in: int, n_out: int) -> np.ndarray:
    """1-D linear-interpolation operator (n_out x n_in), half-pixel centers.

    Output sample i reads source coordinate (i + 0.5) * n_in / n_out - 0.5,
    clamped to the valid range; each row holds the two interpolation weights
    (rows sum to 1, so constants are preserved exactly). Built in float64:
    a caller casts it once, to the dtype of what it resamples.
    """
    if n_in < 1 or n_out < 1:
        raise UsageError(f"resample sizes must be >= 1, got {n_in} -> {n_out}")
    src = np.clip((np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5, 0.0, n_in - 1.0)
    lo = np.floor(src).astype(np.int64)
    frac = src - lo
    rows = np.arange(n_out)
    op = np.zeros((n_out, n_in), dtype=np.float64)
    op[rows, lo] = 1.0 - frac
    op[rows, np.minimum(lo + 1, n_in - 1)] += frac  # the same cell as lo at the clamped end
    return op


def bilinear_upsample(grid, out_h: int, out_w: int) -> np.ndarray:
    """Resample a 2-D grid to (out_h, out_w) by separable linear interpolation.

    Constant input yields constant output and the result never leaves the
    input's value range; the map is linear in its input. A float grid is
    resampled in its own dtype, any other in the default dtype.
    """
    grid = np.asarray(grid)
    if grid.ndim != 2:
        raise UsageError(f"expected a 2-D grid, got shape {grid.shape}")
    if out_h < 1 or out_w < 1:
        raise UsageError(f"output dims must be >= 1, got {out_h}x{out_w}")
    if grid.dtype.kind != "f":
        grid = grid.astype(_DEFAULT_DTYPE)
    row_op = linear_resample_matrix(grid.shape[0], out_h).astype(grid.dtype)
    col_op = linear_resample_matrix(grid.shape[1], out_w).astype(grid.dtype)
    return row_op @ grid @ col_op.T


def gaussian_kernel1d(sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian kernel truncated at 4 sigma."""
    if sigma < 0:
        raise UsageError(f"sigma must be >= 0, got {sigma}")
    radius = int(4.0 * sigma + 0.5)
    if sigma == 0 or radius == 0:
        return np.ones(1, dtype=np.float64)
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
    return kernel / kernel.sum()


def _reflect_index(i: int, n: int) -> int:
    # Symmetric reflection (edge sample repeated): ... 1 0 | 0 1 ... n-1 | n-1 ...
    if n == 1:
        return 0
    period = 2 * n
    i = i % period
    if i < 0:
        i += period
    return i if i < n else period - 1 - i


def gaussian_blur_matrix(n: int, sigma: float) -> np.ndarray:
    """1-D Gaussian blur operator (n x n) with reflective padding, in float64."""
    kernel = gaussian_kernel1d(sigma)
    radius = (len(kernel) - 1) // 2
    op = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for k, weight in enumerate(kernel):
            op[i, _reflect_index(i + k - radius, n)] += weight
    return op
