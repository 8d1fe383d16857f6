"""Dense-array numerical substrate: float width, argument checks, resampling.

Arrays are plain numpy ndarrays, row-major, 32-bit floats by default. A 64-bit
mode can be selected (globally or via the ``precision`` context manager) for
finite-difference gradient validation, where float32 noise would swamp the
comparison.

Resampling uses half-pixel-center sampling (no corner alignment) as explicit
1-D operator matrices. The one upsampler, ``bilinear_upsample``, applies them
to an array (inference) or to an autodiff ``Var`` (training, whose backward
applies their transposes).

``map_image_parts`` runs the frozen pass or the few-shot scoring of an
image stack of more than ``CHUNK_TOKENS`` patch tokens in parts on
``WORKERS`` threads, through ``run_together``, which also overlaps the
pooled-pixel sort with the mask labelling of ``metrics``.
``near_equal_chunks`` is the one rule that cuts many images into chunks.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import math
import os
from typing import Callable, List, Sequence

import numpy as np

from . import autodiff as ag
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

# Threads that a large image stack is split over: the calling thread, and a
# pool of WORKERS - 1 more started on first use.
WORKERS = min(2, os.cpu_count() or 1)
# Patch tokens up to which a stack runs on the calling thread alone; a larger
# one runs in WORKERS parts of at least one image each. A chunk of
# ``SowaModel.chunk_size`` images holds up to CHUNK_TOKENS per thread: 16
# images at 64 px and 4 at 224 px on two. Serially, parts of 4-16 images ran
# a 64 px evaluation about a third faster than one image at a time, while
# parts above 2 ran 224 px images up to 20% slower. So a single 224 px image,
# a training image and the 8-image 64 px memory bank run serially.
CHUNK_TOKENS = 512
_pool = None


def _forget_pool() -> None:
    """In a forked child: the parent's pool threads do not exist there."""
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):  # POSIX only, as is fork
    os.register_at_fork(after_in_child=_forget_pool)


def run_together(calls: Sequence[Callable[[], object]]) -> list:
    """The results of ``calls``, in order: the first run on the calling
    thread, the others meanwhile on the pool of ``WORKERS - 1`` threads,
    each in the caller's ``contextvars`` context (its ``np.errstate`` among
    them). With one worker every call runs on the calling thread and no
    thread starts. A callable that must stay on the calling thread (a
    traced one) may be the first call, or call this, but never run on the
    pool; nor may a call on the pool call this, which would wait on itself.
    Every call has ended, and raised what it raised, before this returns.
    """
    first, *rest = calls
    if WORKERS < 2 or not rest:
        return [call() for call in calls]
    global _pool
    if _pool is None:
        # imported here: with the logging it loads, about 0.6 MB of RSS
        # that a process which never splits its work need not carry
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(WORKERS - 1, thread_name_prefix="sowa-part")
    futures = [_pool.submit(contextvars.copy_context().run, call) for call in rest]
    try:
        head = first()
    finally:
        tail = [future.result() for future in futures]
    return [head, *tail]


def map_image_parts(fn: Callable[[np.ndarray], List[np.ndarray]], stack: np.ndarray,
                    tokens: int) -> List[np.ndarray]:
    """``fn`` of a stack with a leading image axis and ``tokens`` patch
    tokens per image: a stack of more than ``CHUNK_TOKENS`` tokens runs in
    up to ``WORKERS`` consecutive near-equal parts of at least one image,
    one per thread (``run_together``).

    ``fn`` maps a part to a list of arrays with a leading image axis; the
    result is each of them over the whole stack, in order. The calling
    thread runs the first part, so ``fn`` must not call a traced callable.
    Where ``fn`` computes each image by the same products as alone, the
    result is the same bit for bit however the stack is split.
    """
    parts = min(WORKERS, len(stack)) if len(stack) * tokens > CHUNK_TOKENS else 1
    if parts < 2:
        return fn(stack)
    results = run_together([functools.partial(fn, part) for part in np.array_split(stack, parts)])
    return [np.concatenate(column) for column in zip(*results)]


def near_equal_chunks(items: Sequence, size: int) -> List[Sequence]:
    """``items`` in ceil(len / ``size``) consecutive chunks of near-equal
    length, the longer first: 72 images in chunks of at most 16 run as
    15/15/14/14/14, not as four of 16 and one of 8 on one thread."""
    count = -(-len(items) // size)
    base, extra = divmod(len(items), max(count, 1))
    starts = [i * base + min(i, extra) for i in range(count + 1)]
    return [items[a:b] for a, b in zip(starts, starts[1:])]


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


def check_integer(value, name: str, minimum: int = 0, error=UsageError) -> None:
    """Raise ``error`` unless ``value`` is an integer (a Python or numpy
    integer, not a bool) of at least ``minimum``; the default is a seed as
    numpy's seeding takes it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_float(value, name: str, low: float = -math.inf, high: float = math.inf,
                error=UsageError, low_open: bool = False) -> None:
    """Raise ``error`` unless ``value`` is a finite real number (a Python or
    numpy integer or float, not a bool) in [low, high], or in (low, high]
    when ``low_open``; the float counterpart of ``check_integer``."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or (isinstance(value, (float, np.floating)) and not math.isfinite(value))
            or not (low < value if low_open else low <= value) or not value <= high):
        left = "(" if low_open or low == -math.inf else "["
        right = "]" if high < math.inf else ")"
        raise error(f"{name} must be a finite number in {left}{low:g}, {high:g}{right}, "
                    f"got {value!r}")


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


def bilinear_upsample(grid, out_h: int, out_w: int):
    """Resample a 2-D grid, or each grid of a (B, h, w) stack, to
    (out_h, out_w) by separable linear interpolation.

    Constant input yields constant output and the result never leaves the
    input's value range; the map is linear in its input. A float grid is
    resampled in its own dtype, any other array in the default dtype. A grid
    of a stack is resampled by the same products as on its own. An autodiff
    ``Var`` gives a ``Var``, by the same products as its array.
    """
    if not ag.is_var(grid):
        grid = np.asarray(grid)
        if grid.dtype.kind != "f":
            grid = grid.astype(_DEFAULT_DTYPE)
    if len(grid.shape) not in (2, 3):
        raise UsageError(f"expected a 2-D grid or a stack of them, got shape {grid.shape}")
    if out_h < 1 or out_w < 1:
        raise UsageError(f"output dims must be >= 1, got {out_h}x{out_w}")
    row_op = linear_resample_matrix(grid.shape[-2], out_h).astype(grid.dtype)
    col_op = linear_resample_matrix(grid.shape[-1], out_w).astype(grid.dtype)
    return ag.matmul(ag.matmul(row_op, grid), col_op.T)

