"""Hot numeric kernels: per-scale R/S segment statistics and DFA residuals.

Each kernel takes rows stacked as an array of shape (..., length) and
reduces over the last axis, so one call serves one window (a 1-D array)
or a chunk of segment rows of a rolling sweep. The arithmetic is
elementwise products and last-axis sums only, never a BLAS dot: a row's
result then does not depend on how many other rows share the call, which
is what keeps a rolling-trace entry bit-for-bit equal to the standalone
estimate of the same slice.

An R/S ratio depends only on its own segment, and a DFA box's squared
fluctuation only on its own box, so ``window_sums`` serves the
overlapping windows of either estimator by one arithmetic rule. Every
segment start i*lag + j*n of the windows lies on the grid 0, g, 2g, ...
with g = gcd(lag, n). When the windows hold no more segments than that
grid has starts up to the last one, the windows themselves are
evaluated as rows, each summing its own segments; a single window (a
standalone estimate) always is. Otherwise each grid start is evaluated
once, into one table per quantity indexed by start // g, and each
window sums its entries in the order numpy sums a row.

A grid of many starts (a dense rolling R/S sweep) is evaluated one
strided column of the series at a time across all segments, instead of
one segment row at a time; ``_pairwise`` adds columns in the order
numpy's last-axis reduction adds a row, so both ways give the same bits.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

#: Values per chunk of segment or window rows evaluated at once (0.125
#: MB per temporary): it bounds the working set whatever the series
#: length; results do not depend on it.
_TABLE_VALUES = 16384

#: Fewest grid starts evaluated column by column; below it the
#: per-column call overhead outweighs the row-by-row reduction.
#: Columns and summed windows run in chunks of _MAJOR_ROWS up to twice
#: that many rows (0.03 to 0.06 MB per temporary).
_MAJOR_ROWS = 4096


@np.errstate(over="ignore", invalid="ignore")
def rs_segments(x: np.ndarray, n: int, ddof: int
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Mean, standard deviation and cumulative-deviation range of each of
    the floor(length/n) leading segments, and whether some value of the
    segment differs from its first, each of shape (..., segments)."""
    v = x.shape[-1] // n
    seg = x[..., : v * n].reshape(*x.shape[:-1], v, n)
    mean = seg.mean(axis=-1, keepdims=True)
    dev = seg - mean
    std = np.sqrt((dev * dev).sum(axis=-1) / (n - ddof))
    walk = dev.cumsum(axis=-1)
    varies = (seg != seg[..., :1]).any(axis=-1)
    return mean[..., 0], std, walk.max(axis=-1) - walk.min(axis=-1), varies


def rs_segment_sums(x: np.ndarray, n: int, ddof: int
                    ) -> tuple[np.ndarray, np.ndarray, int]:
    """Sum of R/S ratios over the floor(length/n) leading segments.

    Returns (ratio_sum, defined_count, segment_count); the first two have
    x's leading shape. Constant segments, and segments with zero (or
    undefined) standard deviation, contribute nothing to ratio_sum or
    defined_count.
    """
    ratio, defined = _ratios(*rs_segments(x, n, ddof)[1:])
    return ratio.sum(axis=-1), defined.sum(axis=-1), x.shape[-1] // n


@np.errstate(over="ignore", invalid="ignore")
def _ratios(std: np.ndarray, rng: np.ndarray, varies: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """Range over standard deviation where the segment varies and the
    deviation is positive, else 0, and the flags of those segments.

    A constant segment is told by its values, not by its deviation: the
    mean of n copies of v often does not round to v, which leaves the
    same tiny deviation at every position and a ratio of n - 1.
    """
    defined = varies & (std > 0.0)
    return np.divide(rng, std, out=np.zeros_like(rng), where=defined), defined


def rs_window_sums(x: np.ndarray, window: int, lag: int, n: int, ddof: int
                   ) -> tuple[np.ndarray, np.ndarray, int]:
    """rs_segment_sums of every window x[i*lag : i*lag + window] of a 1-D
    x, from window_sums over segment ratios and defined flags."""
    return window_sums(
        x, window, lag, n,
        lambda rows: _ratios(*rs_segments(rows, n, ddof)[1:]),
        lambda first, count, gap: _ratios(
            *_column_segments(x, first, count, gap, n, ddof)))


def window_sums(x: np.ndarray, window: int, lag: int, n: int, values,
                columns=None) -> tuple:
    """Per-quantity sums over the floor(window/n) leading length-n
    segments of every window x[i*lag : i*lag + window] of a 1-D x.

    values(rows) gives a tuple of quantities, each (rows, segments), of
    the leading segments of each row of a 2-D array. Every segment start
    lies on the grid 0, g, 2g, ... with g = gcd(lag, n); whichever is
    fewer is evaluated: the segments of the windows themselves, as rows,
    or each grid start once, into one table per quantity indexed by
    start // g. A grid of at least _MAJOR_ROWS starts is evaluated by
    columns(first, count, gap) when given, else as one-segment rows.
    Rows are evaluated from contiguous copies, so that numpy lays out
    and sums each one as it does a standalone window's. Returns the
    sums, each (windows,), and window // n.
    """
    count = (x.size - window) // lag + 1
    v = window // n
    g = math.gcd(lag, n)
    slots = ((count - 1) * lag + (v - 1) * n) // g + 1
    s = x.strides[0]
    if count * v <= slots:  # a standalone estimate (count 1) lands here
        windows = as_strided(x, (count, window), (lag * s, s), writeable=False)
        step = max(1, _TABLE_VALUES // window)
        parts = [values(windows[a:a + step].copy())
                 for a in range(0, count, step)]
        return (*(np.concatenate(q).sum(axis=-1) for q in zip(*parts)), v)
    if columns is not None and slots >= _MAJOR_ROWS:
        parts = [columns(a * g, b - a, g) for a, b in _spans(slots)]
    else:
        segments = as_strided(x, (slots, n), (g * s, s), writeable=False)
        step = max(1, _TABLE_VALUES // n)
        parts = [[q[:, 0] for q in values(segments[a:a + step].copy())]
                 for a in range(0, slots, step)]
    tables = [np.concatenate(q, dtype=np.float64) for q in zip(*parts)]
    return (*(_window_sums(t, count, lag // g, n // g, v) for t in tables), v)


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


@np.errstate(over="ignore", invalid="ignore")
def _column_segments(x: np.ndarray, first: int, rows: int, gap: int, n: int,
                     ddof: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Standard deviation, walk range and varying flag of the segments
    x[s : s + n] at s = first, first + gap, ..., as rs_segments gives
    them: column k is the strided view of value k of every segment, the
    sums run in _pairwise's order, the walk is a running sum, as cumsum
    runs, and a segment varies where some column differs from column 0."""
    def col(k):
        return x[first + k: first + k + (rows - 1) * gap + 1: gap]

    mean = _pairwise(col, 0, n) / n

    def square(k):
        dev = col(k) - mean
        return np.multiply(dev, dev, out=dev)

    std = np.sqrt(_pairwise(square, 0, n) / (n - ddof))
    walk = col(0) - mean
    high, low, dev = walk.copy(), walk.copy(), np.empty_like(walk)
    varies, differs = np.zeros(walk.shape, bool), np.empty(walk.shape, bool)
    for k in range(1, n):
        varies |= np.not_equal(col(k), col(0), out=differs)
        walk += np.subtract(col(k), mean, out=dev)
        np.maximum(high, walk, out=high)
        np.minimum(low, walk, out=low)
    return std, high - low, varies


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


@np.errstate(over="ignore", invalid="ignore")
def dfa_box_fsq(x: np.ndarray, tau: int) -> np.ndarray:
    """Mean squared residual of the linear fit in each of the
    floor(length/tau) leading boxes, as (..., boxes). A box is first
    centred on its own mean, so a constant box gives exactly 0, and
    cumulatively summed: inside the box a window's profile differs from
    that by a constant and a linear term only, which the fit removes.
    The time axis is centred for conditioning.
    A box whose residual sum of squares is below eps times its sum of
    squares about its mean (residual plus slope^2 * sum t^2, the centred
    fit's orthogonal split) is linear up to rounding and gives exactly 0
    too, as a constant box does.
    """
    boxes = x.shape[-1] // tau
    seg = x[..., : boxes * tau].reshape(*x.shape[:-1], boxes, tau)
    seg = (seg - seg.mean(axis=-1, keepdims=True)).cumsum(axis=-1)
    t = np.arange(tau, dtype=np.float64) - (tau - 1) / 2.0
    tt = (t * t).sum()
    slope = (seg * t).sum(axis=-1) / tt
    level = seg.mean(axis=-1)
    resid = seg - (level[..., None] + slope[..., None] * t)
    ss = (resid * resid).sum(axis=-1)
    eps = np.finfo(np.float64).eps
    return np.where(ss < eps * ss + eps * slope * slope * tt, 0.0, ss) / tau
