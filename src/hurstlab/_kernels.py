"""Hot numeric kernels: per-scale R/S segment statistics and DFA residuals.

Each kernel takes windows stacked as an array of shape (..., length) and
reduces over the last axis, so one call serves one window (a 1-D array)
or a whole chunk of a rolling sweep. The arithmetic is elementwise
products and last-axis sums only, never a BLAS dot: a window's result
then does not depend on how many other windows share the call, which is
what keeps a rolling-trace entry bit-for-bit equal to the standalone
estimate of the same slice.

An R/S ratio depends only on its own segment, so ``rs_window_sums``
serves overlapping windows from a segment table: each distinct segment
start of the windows is evaluated once, and each window gathers its
ratios from the table and sums them in the order ``rs_segment_sums``
does.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

#: Windows per batched call or gather, and values per evaluated chunk of
#: an R/S segment table (0.125 MB per temporary): they bound the working
#: set whatever the series length; results do not depend on them.
_CHUNK_ROWS = 256
_TABLE_VALUES = _CHUNK_ROWS * 64


def rs_segments(x: np.ndarray, n: int, ddof: int
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean, standard deviation and cumulative-deviation range of each of
    the floor(length/n) leading segments, each of shape (..., segments)."""
    v = x.shape[-1] // n
    seg = x[..., : v * n].reshape(*x.shape[:-1], v, n)
    mean = seg.mean(axis=-1, keepdims=True)
    dev = seg - mean
    std = np.sqrt((dev * dev).sum(axis=-1) / (n - ddof))
    walk = dev.cumsum(axis=-1)
    return mean[..., 0], std, walk.max(axis=-1) - walk.min(axis=-1)


def rs_segment_sums(x: np.ndarray, n: int, ddof: int
                    ) -> tuple[np.ndarray, np.ndarray, int]:
    """Sum of R/S ratios over the floor(length/n) leading segments.

    Returns (ratio_sum, defined_count, segment_count); the first two have
    x's leading shape. Segments with zero (or undefined) standard
    deviation contribute nothing to ratio_sum or defined_count.
    """
    _, std, rng = rs_segments(x, n, ddof)
    defined = std > 0.0
    ratio = np.divide(rng, std, out=np.zeros_like(rng), where=defined)
    return ratio.sum(axis=-1), defined.sum(axis=-1), x.shape[-1] // n


def rs_window_sums(x: np.ndarray, window: int, lag: int, n: int, ddof: int
                   ) -> tuple[np.ndarray, np.ndarray, int]:
    """rs_segment_sums of every window x[i*lag : i*lag + window] of a 1-D x.

    Window i's segments start at i*lag + j*n for j < window // n. A
    table holds the ratio and defined count (0 or 1) of each distinct
    start, each segment evaluated once as a one-segment row; each window
    gathers its slots and sums them in segment order, so an entry equals
    rs_segment_sums of its slice bit for bit. Returns (ratio_sum,
    defined_count) of shape (windows,) and the segment count per window.
    """
    count = (x.size - window) // lag + 1
    v = window // n
    used = np.zeros(x.size - n + 1, dtype=bool)
    if v <= count:  # one strided slice per segment offset or per window
        for offset in range(0, v * n, n):
            used[offset: offset + (count - 1) * lag + 1: lag] = True
    else:
        for start in range(0, count * lag, lag):
            used[start: start + v * n: n] = True
    starts = np.flatnonzero(used)
    slot = np.cumsum(used) - 1
    stride = x.strides[0]
    segments = as_strided(x, (used.size, n), (stride, stride), writeable=False)
    ratio = np.empty(starts.size)
    defined = np.empty(starts.size, dtype=np.intp)
    step = max(1, _TABLE_VALUES // n)
    for a in range(0, starts.size, step):
        ratio[a:a + step], defined[a:a + step], _ = rs_segment_sums(
            segments[starts[a:a + step]], n, ddof)
    totals = np.empty(count)
    counts = np.empty(count, dtype=np.intp)
    for a in range(0, count, _CHUNK_ROWS):
        index = slot[np.arange(a, min(a + _CHUNK_ROWS, count))[:, None] * lag
                     + np.arange(0, v * n, n)]
        totals[a:a + len(index)] = ratio[index].sum(axis=-1)
        counts[a:a + len(index)] = defined[index].sum(axis=-1)
    return totals, counts, v


def dfa_box_fsq(x: np.ndarray, tau: int) -> np.ndarray:
    """Mean squared residual of per-box linear fits, averaged over boxes.

    Boxes are anchored at index 0; the trailing remainder is discarded.
    The fit uses the centered time axis for conditioning; residuals are
    identical to an uncentered fit. Returns an array of x's leading shape.
    """
    boxes = x.shape[-1] // tau
    seg = x[..., : boxes * tau].reshape(*x.shape[:-1], boxes, tau)
    t = np.arange(tau, dtype=np.float64) - (tau - 1) / 2.0
    slope = (seg * t).sum(axis=-1) / (t * t).sum()
    level = seg.mean(axis=-1)
    resid = seg - (level[..., None] + slope[..., None] * t)
    fsq = (resid * resid).sum(axis=-1) / tau
    return fsq.mean(axis=-1)
