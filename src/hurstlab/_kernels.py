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

The table has two layouts with one summation order. By default its
segments are rows, reduced one row at a time. When the starts are evenly
spaced and many (a dense rolling sweep, or a long standalone series),
each step runs instead across all segments at once, one strided column
of the series at a time, and each window's ratios are strided columns of
the table; ``_pairwise`` sums columns in the order numpy's last-axis
reduction sums a row, so both layouts give the same bits.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

#: Windows per batched call or gather, and values per evaluated chunk of
#: an R/S segment table (0.125 MB per temporary): they bound the working
#: set whatever the series length; results do not depend on them.
_CHUNK_ROWS = 256
_TABLE_VALUES = _CHUNK_ROWS * 64

#: Fewest evenly spaced segment starts evaluated column by column; below
#: it the per-column call overhead outweighs the row-by-row reduction.
#: Columns and gathered windows run in chunks of _MAJOR_ROWS up to twice
#: that many rows (0.03 to 0.06 MB per temporary).
_MAJOR_ROWS = 4096


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
    ratio, defined = _ratios(std, rng)
    return ratio.sum(axis=-1), defined.sum(axis=-1), x.shape[-1] // n


def _ratios(std: np.ndarray, rng: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Range over standard deviation, 0 where the deviation is not
    positive, and the flags of the segments where it is."""
    defined = std > 0.0
    return np.divide(rng, std, out=np.zeros_like(rng), where=defined), defined


def rs_window_sums(x: np.ndarray, window: int, lag: int, n: int, ddof: int
                   ) -> tuple[np.ndarray, np.ndarray, int]:
    """rs_segment_sums of every window x[i*lag : i*lag + window] of a 1-D x.

    Window i's segments start at i*lag + j*n for j < window // n. A
    table holds the ratio and defined count (0 or 1) of each distinct
    start, each segment evaluated once; each window gathers its slots and
    sums them in segment order, so an entry equals rs_segment_sums of its
    slice bit for bit. At least _MAJOR_ROWS starts in one arithmetic
    progression take the column layout (``_column_sums``); other tables
    are evaluated as one-segment rows. Returns (ratio_sum, defined_count)
    of shape (windows,) and the segment count per window.
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
    gaps = np.diff(starts)
    if starts.size >= _MAJOR_ROWS and (gaps == gaps[0]).all():
        return _column_sums(x, window, lag, n, ddof, int(gaps[0]), starts.size)
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


def _column_sums(x: np.ndarray, window: int, lag: int, n: int, ddof: int,
                 gap: int, rows: int) -> tuple[np.ndarray, np.ndarray, int]:
    """rs_window_sums of a table whose starts are 0, gap, ...,
    (rows - 1) * gap, evaluated column by column.

    Every start is a multiple of gap, and so is lag when there are
    several windows: the slot of window i's segment j is i * step +
    j * (n // gap) with step = lag // gap, so term j of a chunk of
    windows is a strided view of the table. A single window reads one
    slot per term, whatever the step.
    """
    count = (x.size - window) // lag + 1
    v = window // n
    ratio = np.empty(rows)
    defined = np.empty(rows, dtype=np.intp)
    for a, b in _spans(rows):
        ratio[a:b], defined[a:b] = _ratios(
            *_column_segments(x, a * gap, b - a, gap, n, ddof))
    step, stride = max(lag // gap, 1), n // gap
    totals = np.empty(count)
    counts = np.empty(count, dtype=np.intp)
    for a, b in _spans(count):
        for out, table in ((totals, ratio), (counts, defined)):
            out[a:b] = _pairwise(
                lambda j: table[a * step + j * stride:
                                (b - 1) * step + j * stride + 1: step], 0, v)
    return totals, counts, v


def _spans(total: int) -> list[tuple[int, int]]:
    """Bounds [a, b) of equal chunks of range(total), each of _MAJOR_ROWS
    to 2 * _MAJOR_ROWS - 1 rows, or one chunk when total is smaller."""
    size = -(-total // max(total // _MAJOR_ROWS, 1))
    return [(a, min(a + size, total)) for a in range(0, total, size)]


def _column_segments(x: np.ndarray, first: int, rows: int, gap: int, n: int,
                     ddof: int) -> tuple[np.ndarray, np.ndarray]:
    """Standard deviation and walk range of the segments x[s : s + n] at
    s = first, first + gap, ..., as rs_segments gives them: column k is
    the strided view of value k of every segment, the sums run in
    _pairwise's order and the walk is a running sum, as cumsum runs."""
    def col(k):
        return x[first + k: first + k + (rows - 1) * gap + 1: gap]

    mean = _pairwise(col, 0, n) / n

    def square(k):
        dev = col(k) - mean
        return np.multiply(dev, dev, out=dev)

    std = np.sqrt(_pairwise(square, 0, n) / (n - ddof))
    walk = col(0) - mean
    high, low, dev = walk.copy(), walk.copy(), np.empty_like(walk)
    for k in range(1, n):
        walk += np.subtract(col(k), mean, out=dev)
        np.maximum(high, walk, out=high)
        np.minimum(low, walk, out=low)
    return std, high - low


def _pairwise(col, lo: int, n: int) -> np.ndarray:
    """col(lo) + ... + col(lo + n - 1), added in the order numpy's add
    reduction adds a contiguous row of n values: one by one below 8
    terms; up to 128, eight running sums over blocks of 8, combined as a
    tree, then the tail one by one; above 128, the two halves split at a
    multiple of 8. The arrays col returns are never written to. numpy
    then adds its sum to 0.0, which only turns a sum of -0.0 terms into
    0.0; no such sum reaches a ratio.
    """
    if n < 8:
        total = col(lo)
        for k in range(lo + 1, lo + n):
            total = total + col(k)
        return total
    if n <= 128:
        end = lo + n - n % 8
        r = [col(lo + j) for j in range(8)]
        for i in range(lo + 8, end, 8):
            # the first block's sums are new arrays; later blocks add in place
            r = [np.add(r[j], col(i + j), out=None if i == lo + 8 else r[j])
                 for j in range(8)]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for k in range(end, lo + n):
            total += col(k)
        return total
    half = n // 2 - n // 2 % 8
    return _pairwise(col, lo, half) + _pairwise(col, lo + half, n - half)


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
