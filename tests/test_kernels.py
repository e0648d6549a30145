"""The R/S and DFA kernels: constant segments, the segment table of
overlapping windows in both layouts and for both estimators, the
summation order they share, and batched calls equal to one window per
call."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurstlab import _kernels
from hurstlab.dfa import default_box_sizes
from hurstlab.rescaled_range import PRESET_250_SEGMENTS


def test_rs_sums_degenerate_segments_counted():
    x = np.concatenate([np.full(8, 2.0), np.arange(8.0)])
    total, defined, segments = _kernels.rs_segment_sums(x, 8, 0)
    assert segments == 2
    assert defined == 1
    assert total > 0.0


@st.composite
def window_sweeps(draw, dense=False):
    """A series with constant runs, and a window, lag, n and ddof for it,
    with a DFA box size tau (None below a window of 4) and integrate
    flag; dense draws half of its lags from 1..4, where the starts of the
    most tables are evenly spaced."""
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
    tau = draw(st.integers(4, window)) if window >= 4 else None
    return values, window, lag, n, ddof, tau, draw(st.booleans())


@given(window_sweeps())
@settings(max_examples=150, deadline=None)
def test_segment_table_equals_per_window_sums(case):
    assert_table_equals_per_window_sums(case)


@given(window_sweeps(dense=True))
@settings(max_examples=150, deadline=None)
def test_column_layout_equals_per_window_sums(case):
    # Every R/S table of at least 8 evenly spaced starts takes the column
    # layout, its columns and windows in chunks of 8 to 15 rows; lags
    # whose starts are uneven, and every DFA table, keep the row layout.
    with mock.patch.object(_kernels, "_MAJOR_ROWS", 8):
        assert_table_equals_per_window_sums(case)


def assert_table_equals_per_window_sums(case):
    values, window, lag, n, ddof, tau, integrate = case
    starts = range(0, values.size - window + 1, lag)
    totals, counts, v = _kernels.rs_window_sums(values, window, lag, n, ddof)
    per_window = [_kernels.rs_segment_sums(values[s:s + window], n, ddof)
                  for s in starts]
    assert v == window // n
    assert totals.tolist() == [total.item() for total, _, _ in per_window]
    assert counts.tolist() == [count.item() for _, count, _ in per_window]
    if tau is None:
        return
    fsq, boxes = _kernels.window_sums(values, window, lag, tau, lambda rows: (
        _kernels.dfa_box_fsq(rows, tau, integrate),))
    assert boxes == window // tau
    assert fsq.tolist() == [
        _kernels.dfa_box_fsq(values[s:s + window], tau, integrate).sum().item()
        for s in starts]


def test_pairwise_sums_columns_in_numpy_row_order():
    # n < 8, 8 <= n <= 128 and the split above 128, at magnitudes from
    # 1e-8 to 1e8; a numpy that changes the order of its last-axis
    # add.reduce fails here first.
    rng = np.random.Generator(np.random.PCG64(7))
    for n in range(1, 301):
        rows = (rng.standard_normal((64, n))
                * 10.0 ** rng.integers(-8, 9, (64, n)))
        got = _kernels._pairwise(lambda k: rows[:, k], 0, n)
        assert got.tobytes() == np.add.reduce(rows, axis=-1).tobytes(), n


def rs_statistic(x, n):
    total, defined, _ = _kernels.rs_segment_sums(x, n, 0)
    return total / np.maximum(defined, 1)


def dfa_box_fsq(x, tau):
    """Per-box F^2 of the integrated signal, as the rolling sweep's
    default DFA evaluates its boxes."""
    return _kernels.dfa_box_fsq(x, tau, True)


@pytest.mark.parametrize("kernel, scales", [
    (rs_statistic, sorted(PRESET_250_SEGMENTS)),
    (dfa_box_fsq, default_box_sizes(250)),
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
