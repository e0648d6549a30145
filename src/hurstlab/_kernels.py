"""Hot numeric kernels: per-scale R/S segment statistics and DFA residuals.

Each kernel takes rows stacked as an array of shape (..., length) and
reduces over the last axis, so one call serves one window (a 1-D array)
or a chunk of segment rows of a rolling sweep. The arithmetic is
elementwise products and sums only, never a BLAS dot, and every sum that
R/S shares between layouts adds its terms from the first to the last: a
cumsum along a row, or a running += down the columns of many rows at
once, which gives the same bits. So a row's result does not depend on
how many other rows share the call, which is what keeps a rolling-trace
entry bit-for-bit equal to the standalone estimate of the same slice.

An R/S ratio depends only on its own segment, and a DFA box's squared
fluctuation only on its own box, so ``window_sums`` serves the
overlapping windows of either estimator by one arithmetic rule. Every
segment start i*lag + j*n of the windows lies on the grid 0, g, 2g, ...
with g = gcd(lag, n). The windows themselves are evaluated as rows,
each summing its own segments, where that costs less than evaluating
the grid; a single window (a standalone estimate) always is. Otherwise
each grid start is evaluated once, into one table per quantity indexed
by start // g, from which each window sums its entries. R/S evaluates
its grid one strided column of the series at a time across all
segments, DFA one box row at a time.

The sums in order are an R/S segment's mean and sum of squared
deviations and a window's sum of its segment or box quantities, so the
layout decides only the speed, never a bit. A DFA box's own sums need
no such order: every layout evaluates boxes as contiguous rows of
``dfa_box_fsq``.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

#: Values per chunk of segment or window rows, and grid starts per
#: chunk of columns, evaluated at once (0.125 MB per temporary): it
#: bounds the working set whatever the series length; results do not
#: depend on it.
_TABLE_VALUES = 16384

#: Fewest rows summed down their columns rather than along each row:
#: one call per column adds across all rows at once, where a cumsum
#: adds one value at a time. Results do not depend on it.
_MANY_ROWS = 512


def _row_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the last axis, added from the first term to the last,
    by a cumsum along each row or, for many rows, down the columns."""
    if a.size < _MANY_ROWS * a.shape[-1]:
        return np.cumsum(a, axis=-1)[..., -1]
    return _column_sum(np.moveaxis(a, -1, 0))


def _column_sum(terms) -> np.ndarray:
    """Elementwise sum of equal-shape arrays, added from the first to the
    last; none is written to."""
    terms = iter(terms)
    total = next(terms).copy()
    for term in terms:
        total += term
    return total


@np.errstate(over="ignore", invalid="ignore")
def rs_segments(x: np.ndarray, n: int, ddof: int
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Mean, standard deviation and cumulative-deviation range of each of
    the floor(length/n) leading segments, and whether some value of the
    segment differs from its first, each of shape (..., segments). The
    mean, the sum of squared deviations and the walk add the values of
    a segment from the first to the last: along each segment, or for
    many segments down their columns (_column_segments)."""
    v = x.shape[-1] // n
    seg = x[..., : v * n].reshape(*x.shape[:-1], v, n)
    if seg.size >= _MANY_ROWS * n:
        return _column_segments(np.moveaxis(seg, -1, 0), ddof)
    mean = _row_sum(seg) / n
    # The deviations as real parts and their squares as imaginary ones:
    # one cumsum adds both side by side in the time it adds one.
    run = np.empty(seg.shape, np.complex128)
    np.subtract(seg, mean[..., None], out=run.real)
    np.multiply(run.real, run.real, out=run.imag)
    np.cumsum(run, axis=-1, out=run)
    walk = run.real.copy()
    varies = (seg != seg[..., :1]).any(axis=-1)
    return (mean, np.sqrt(run.imag[..., -1] / (n - ddof)),
            walk.max(axis=-1) - walk.min(axis=-1), varies)


@np.errstate(over="ignore", invalid="ignore")
def _column_segments(cols: np.ndarray, ddof: int
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """rs_segments of segments given by columns: cols[k] holds value k of
    every segment. Each step adds one column across all segments; a
    segment varies where some column differs from column 0."""
    n = len(cols)
    mean = _column_sum(cols) / n
    walk = cols[0] - mean
    square, high, low = walk * walk, walk.copy(), walk.copy()
    dev = np.empty_like(walk)
    varies, differs = np.zeros(walk.shape, bool), np.empty(walk.shape, bool)
    for col in cols[1:]:
        varies |= np.not_equal(col, cols[0], out=differs)
        walk += np.subtract(col, mean, out=dev)
        square += np.multiply(dev, dev, out=dev)
        np.maximum(high, walk, out=high)
        np.minimum(low, walk, out=low)
    return mean, np.sqrt(square / (n - ddof)), high - low, varies


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
    """The sum of the R/S ratios of the floor(window/n) leading segments
    of every window x[i*lag : i*lag + window] of a 1-D x, the count of
    segments that have one (_ratios), and window // n."""
    return window_sums(
        x, window, lag, n,
        lambda rows: _ratios(*rs_segments(rows, n, ddof)[1:]),
        lambda cols: _ratios(*_column_segments(cols, ddof)[1:]))


def window_sums(x: np.ndarray, window: int, lag: int, n: int, values,
                columns=None) -> tuple:
    """Per-quantity sums over the floor(window/n) leading length-n
    segments of every window x[i*lag : i*lag + window] of a 1-D x.

    values(rows) gives a tuple of quantities, each (rows, segments), of
    the leading segments of each row of a 2-D array. Every segment start
    lies on the grid 0, g, 2g, ... with g = gcd(lag, n). The segments of
    a single window, and of windows that cost less to evaluate than the
    grid (_reads_windows), are evaluated as rows. Otherwise each grid
    start is evaluated once, into one table per quantity indexed by
    start // g: by columns(cols) when given, cols[k] holding value k of
    every segment of a chunk of starts, else as one-segment rows. Each
    window then sums its table entries. Rows are passed as contiguous
    arrays, so that numpy lays out and reduces each one as it does a
    standalone window's. Returns the sums, each (windows,), and
    window // n.
    """
    count = (x.size - window) // lag + 1
    v = window // n
    g = math.gcd(lag, n)
    slots = ((count - 1) * lag + (v - 1) * n) // g + 1
    s = x.strides[0]
    if count == 1 or _reads_windows(count * v, slots, columns is not None):
        windows = as_strided(x, (count, window), (lag * s, s), writeable=False)
        step = max(1, _TABLE_VALUES // window)
        parts = [values(np.ascontiguousarray(windows[a:a + step]))
                 for a in range(0, count, step)]
        return (*(_row_sum(np.concatenate(q, dtype=np.float64))
                  for q in zip(*parts)), v)
    if columns is not None:
        cols = as_strided(x, (n, slots), (s, g * s), writeable=False)
        parts = [columns(cols[:, a:a + _TABLE_VALUES])
                 for a in range(0, slots, _TABLE_VALUES)]
    else:
        segments = as_strided(x, (slots, n), (g * s, s), writeable=False)
        step = max(1, _TABLE_VALUES // n)
        parts = [[q[:, 0] for q in values(segments[a:a + step].copy())]
                 for a in range(0, slots, step)]
    tables = [np.concatenate(q, dtype=np.float64) for q in zip(*parts)]
    return (*(_row_sum(as_strided(
        t, (count, v), (lag // g * t.itemsize, n // g * t.itemsize),
        writeable=False)) for t in tables), v)


def _reads_windows(segments: int, starts: int, by_columns: bool) -> bool:
    """Whether the windows' own segments cost less to evaluate as rows
    than the grid's starts. A start evaluated as a one-segment row costs
    as much as a segment of a window; read down the columns, about a
    quarter of that, plus, for the table, about as much as 256 segments
    more."""
    return segments <= (256 + starts / 4 if by_columns else starts)


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
