"""Hot numeric kernels: per-scale R/S segment statistics and DFA residuals.

Each kernel takes windows stacked as an array of shape (..., length) and
reduces over the last axis, so one call serves one window (a 1-D array)
or a whole chunk of a rolling sweep. The arithmetic is elementwise
products and last-axis sums only, never a BLAS dot: a window's result
then does not depend on how many other windows share the call, which is
what keeps a rolling-trace entry bit-for-bit equal to the standalone
estimate of the same slice.

An R/S ratio depends only on its own segment, so ``rs_window_sums``
serves overlapping windows from one table indexed by segment start:
each distinct segment start of the windows is evaluated once, and each
window sums its entries in the order ``rs_segment_sums`` sums a row. A
single window (a standalone estimate) is ``rs_segment_sums`` of its
slice.

When the used starts are evenly spaced and many (a dense rolling sweep),
the table is evaluated one strided column of the series at a time
across all segments, instead of one segment row at a time;
``_pairwise`` adds columns in the order numpy's last-axis reduction adds
a row, so both ways give the same bits.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

#: Values per chunk of segment rows evaluated at once (0.125 MB per
#: temporary): it bounds the working set whatever the series length;
#: results do not depend on it.
_TABLE_VALUES = 16384

#: Fewest evenly spaced segment starts evaluated column by column; below
#: it the per-column call overhead outweighs the row-by-row reduction.
#: Columns and summed windows run in chunks of _MAJOR_ROWS up to twice
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

    One window is rs_segment_sums of its slice. Several windows read a
    table indexed by segment start: entry s holds the ratio and defined
    count (0 or 1) of x[s : s + n], set only where some window's
    segment i*lag + j*n starts. At least _MAJOR_ROWS used starts in one
    arithmetic progression are evaluated column by column
    (``_column_segments``), others as one-segment rows. Returns
    (ratio_sum, defined_count) of shape (windows,) and window // n.
    """
    count = (x.size - window) // lag + 1
    if count == 1:
        return rs_segment_sums(x[None, :window], n, ddof)
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
    ratio = np.empty(used.size)  # unused entries are never read
    defined = np.empty(used.size, dtype=np.intp)
    if starts.size >= _MAJOR_ROWS and (gaps == gaps[0]).all():
        gap = int(gaps[0])
        for a, b in _spans(starts.size):
            table = slice(a * gap, b * gap, gap)
            ratio[table], defined[table] = _ratios(
                *_column_segments(x, a * gap, b - a, gap, n, ddof))
    else:
        segments = as_strided(x, (used.size, n), x.strides * 2,
                              writeable=False)
        step = max(1, _TABLE_VALUES // n)
        for a in range(0, starts.size, step):
            s = starts[a:a + step]
            ratio[s], defined[s], _ = rs_segment_sums(segments[s], n, ddof)
    return (_window_sums(ratio, count, lag, n, v),
            _window_sums(defined, count, lag, n, v), v)


def _window_sums(table: np.ndarray, count: int, lag: int, n: int, v: int
                 ) -> np.ndarray:
    """table[i*lag] + table[i*lag + n] + ... (v terms) for each i < count,
    added in numpy's order for a row of v values: a strided sum per
    window when windows are fewer than terms, else a strided column of
    windows per term, summed by _pairwise."""
    if count < v:
        return np.array([table[i * lag: i * lag + v * n: n].sum()
                         for i in range(count)], dtype=table.dtype)
    out = np.empty(count, dtype=table.dtype)
    for a, b in _spans(count):
        out[a:b] = _pairwise(lambda j: table[a * lag + j * n:
                                             (b - 1) * lag + j * n + 1: lag],
                             0, v)
    return out


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
