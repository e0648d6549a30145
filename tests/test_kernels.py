"""The R/S and DFA kernels: constant segments, the sums of overlapping
windows in each layout (windows as rows; R/S grid columns, DFA grid
rows) and for both estimators, and batched calls equal to one window
per call."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hurstlab import _kernels
from hurstlab.dfa import default_box_sizes
from hurstlab.rescaled_range import PRESET_250_SEGMENTS


def rs_segment_sums(x, n, ddof):
    """The sum of the R/S ratios of the floor(length/n) leading segments
    of each row of x, the count of segments that have one, and length //
    n: the per-window reference of the segment tables."""
    ratio, defined = _kernels._ratios(*_kernels.rs_segments(x, n, ddof)[1:])
    return (np.cumsum(ratio, axis=-1)[..., -1], defined.sum(axis=-1),
            x.shape[-1] // n)


def test_rs_sums_degenerate_segments_counted():
    x = np.concatenate([np.full(8, 2.0), np.arange(8.0)])
    total, defined, segments = _kernels.rs_window_sums(x, x.size, 1, 8, 0)
    assert segments == 2
    assert defined.tolist() == [1]
    assert total.item() > 0.0


@st.composite
def window_sweeps(draw, dense=False):
    """A series with constant runs, contiguous or every other value of a
    NaN-padded buffer, and a window, lag, n and ddof for it, with a DFA
    box size tau (None below a window of 4); dense draws half of its lags
    from 1..4, where the segment starts of the windows are densest on
    their gcd grid."""
    length = draw(st.integers(2, 700))
    window = draw(st.integers(2, length))
    n = draw(st.integers(2, window))
    lag = draw(st.integers(1, length) if not dense or draw(st.booleans())
               else st.integers(1, 4))
    ddof = draw(st.sampled_from([0, 1]))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2 ** 32))))
    values = rng.standard_normal(length) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    for start, size, level in draw(st.lists(st.tuples(
            st.integers(0, length - 1), st.integers(1, 3 * n),
            st.sampled_from([0.0, 1.5, -2e3])), max_size=4)):
        values[start:start + size] = level
    if draw(st.booleans()):
        buffer = np.full(2 * length, np.nan)
        buffer[::2] = values
        values = buffer[::2]
    tau = draw(st.integers(4, window)) if window >= 4 else None
    return values, window, lag, n, ddof, tau


_DIRECTED = np.random.Generator(np.random.PCG64(5)).standard_normal(2000)


@given(window_sweeps())
# 3 windows of 20 segments on a gcd grid of 26 starts: the table is
# summed 20 terms deep over 3 windows
@example((_DIRECTED[:1300], 1000, 150, 50, 0, 64))
# lag > window: 7 disjoint windows of a strided series, read as rows by
# DFA, R/S takes the grid
@example((_DIRECTED[::2], 100, 130, 10, 1, 16))
@settings(max_examples=150, deadline=None)
def test_segment_table_equals_per_window_sums(case):
    assert_table_equals_per_window_sums(case)


@given(window_sweeps(dense=True))
@settings(max_examples=150, deadline=None)
def test_column_layout_equals_per_window_sums(case):
    # Every scale from the grid, in chunks of 16 values, and every sum of
    # 4 or more rows down their columns: R/S grid columns 16 starts at a
    # time, DFA rows of as many boxes as fit (at least one).
    with mock.patch.object(_kernels, "_TABLE_VALUES", 16), \
            mock.patch.object(_kernels, "_MANY_ROWS", 4), \
            mock.patch.object(_kernels, "_reads_windows", lambda *args: False):
        assert_table_equals_per_window_sums(case)


def assert_table_equals_per_window_sums(case):
    values, window, lag, n, ddof, tau = case
    starts = range(0, values.size - window + 1, lag)
    totals, counts, v = _kernels.rs_window_sums(values, window, lag, n, ddof)
    per_window = [rs_segment_sums(values[s:s + window], n, ddof)
                  for s in starts]
    assert v == window // n
    assert totals.tolist() == [total.item() for total, _, _ in per_window]
    assert counts.tolist() == [count.item() for _, count, _ in per_window]
    if tau is None:
        return
    fsq, boxes = _kernels.window_sums(values, window, lag, tau, lambda rows: (
        _kernels.dfa_box_fsq(rows, tau),))
    assert boxes == window // tau
    assert fsq.tolist() == [
        np.cumsum(_kernels.dfa_box_fsq(values[s:s + window], tau))[-1].item()
        for s in starts]


def rs_statistic(x, n):
    total, defined, _ = rs_segment_sums(x, n, 0)
    return total / np.maximum(defined, 1)


@pytest.mark.parametrize("kernel, scales", [
    (rs_statistic, sorted(PRESET_250_SEGMENTS)),
    (_kernels.dfa_box_fsq, default_box_sizes(250)),
])
def test_batched_kernel_equals_one_window_per_call(kernel, scales):
    windows = np.random.Generator(np.random.PCG64(0)).standard_normal((600, 250))
    windows[100:300, 40:200] = 0.5  # constant segments and boxes
    step = _kernels._TABLE_VALUES // 250
    for scale in scales:
        batched = np.concatenate([kernel(windows[i:i + step], scale)
                                  for i in range(0, len(windows), step)])
        single = np.array([kernel(w, scale) for w in windows])
        assert batched.tolist() == single.tolist()
