import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hurstlab import _kernels
from hurstlab.errors import (
    AllSegmentsDegenerateError,
    HurstLabError,
    InputError,
    InvalidPlanError,
    InvalidSeriesError,
    NonPositiveHError,
    TooShortError,
)
from hurstlab.regression import ScalingCurve, fit_rows
from hurstlab.rescaled_range import (
    EstimatorKind,
    HurstEstimate,
    PartitionPlan,
    PartitionPolicy,
    Persistence,
    StdMode,
    autocorrelation_from_h,
    build_partition_plan,
    classify_persistence,
    estimate_from_fits,
    estimate_hurst_rs,
    fractal_dimension,
    rs_at_scale,
    rs_at_scale_with_diagnostics,
    rs_curve_rows,
    segment_stats,
)
from hurstlab.synthetic import fgn, white_noise


def rs_oracle(series, n, ddof=0):
    """Straight-line reimplementation of the segment recipe in pure python."""
    series = [float(x) for x in series]
    count = len(series) // n
    ratios = []
    for i in range(count):
        seg = series[i * n:(i + 1) * n]
        m = sum(seg) / n
        s = math.sqrt(sum((x - m) ** 2 for x in seg) / (n - ddof))
        walk = []
        acc = 0.0
        for x in seg:
            acc += x - m
            walk.append(acc)
        r = max(walk) - min(walk)
        if any(x != seg[0] for x in seg) and s > 0.0:
            ratios.append(r / s)
    if not ratios:
        raise ValueError("all segments degenerate")
    return sum(ratios) / len(ratios)


# -- segment_stats -----------------------------------------------------------

def test_constant_segment_degenerate():
    stats = segment_stats([3.0, 3.0, 3.0, 3.0])
    assert stats.range == 0.0
    assert stats.std_dev == 0.0
    assert stats.ratio is None


def test_constant_segment_with_inexact_mean_degenerate():
    # The mean of twenty copies of 0.1 does not round to 0.1: every
    # deviation is the same 1.4e-17, which once gave a ratio of 19.0.
    stats = segment_stats([0.1] * 20)
    assert stats.std_dev > 0.0
    assert stats.ratio is None


def test_alternating_segment_hand_trace():
    stats = segment_stats([1.0, -1.0, 1.0, -1.0])
    assert stats.mean == 0.0
    assert stats.std_dev == pytest.approx(1.0, abs=1e-15)
    assert stats.range == pytest.approx(1.0, abs=1e-15)
    assert stats.ratio == pytest.approx(1.0, abs=1e-15)


def test_ramp_segment_hand_trace():
    # walk is [-1.5, -2.0, -1.5, 0.0]: range 2, population std sqrt(1.25)
    stats = segment_stats([1.0, 2.0, 3.0, 4.0])
    assert stats.mean == pytest.approx(2.5)
    assert stats.range == pytest.approx(2.0, abs=1e-12)
    assert stats.std_dev == pytest.approx(math.sqrt(1.25), abs=1e-12)
    assert stats.ratio == pytest.approx(2.0 / math.sqrt(1.25), abs=1e-12)
    assert stats.ratio == pytest.approx(1.7888543819998317, abs=1e-12)
    assert rs_oracle([1.0, 2.0, 3.0, 4.0], 4) == pytest.approx(stats.ratio,
                                                               abs=1e-15)


def test_segment_walk_closes_to_zero():
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(20):
        seg = rng.normal(size=37)
        dev = seg - seg.mean()
        assert abs(dev.cumsum()[-1]) < 1e-10


def test_sample_std_mode():
    stats = segment_stats([1.0, 2.0, 3.0, 4.0], std_mode=StdMode.SAMPLE)
    assert stats.std_dev == pytest.approx(math.sqrt(5.0 / 3.0), abs=1e-12)


@pytest.mark.parametrize("std_mode", list(StdMode))
def test_segment_ratio_is_the_kernel_ratio(std_mode):
    # segment_stats is the one-segment case of rs_at_scale, bit for bit.
    rng = np.random.Generator(np.random.PCG64(23))
    for size in (2, 3, 8, 37, 250, 1000):
        for _ in range(10):
            seg = rng.standard_normal(size) * rng.uniform(1e-3, 1e3)
            assert segment_stats(seg, std_mode).ratio == rs_at_scale(
                seg, seg.size, std_mode)


# -- rs_at_scale -------------------------------------------------------------

def test_constant_series_all_degenerate():
    with pytest.raises(AllSegmentsDegenerateError):
        rs_at_scale([2.0] * 16, 8)


def test_tiled_alternating_series():
    assert rs_at_scale([1.0, -1.0] * 4, 4) == pytest.approx(1.0, abs=1e-15)


def test_rs_matches_oracle_on_noise():
    x = white_noise(4096, seed=9)
    value = rs_at_scale(x, 64)
    assert value == pytest.approx(rs_oracle(x, 64), rel=1e-10)


def test_rs_oracle_corpus_short_series():
    rng = np.random.Generator(np.random.PCG64(123))
    for trial in range(50):
        length = int(rng.integers(16, 65))
        x = rng.normal(size=length)
        for n in (8, 16, 32):
            if length // n < 1:
                continue
            assert rs_at_scale(x, n) == pytest.approx(
                rs_oracle(x, n), abs=1e-10), (trial, n)


def test_rs_discards_trailing_remainder():
    x = white_noise(100, seed=2)
    # only one 64-segment fits; remainder ignored
    assert rs_at_scale(x, 64) == pytest.approx(rs_oracle(x[:64], 64), rel=1e-12)


def test_rs_skips_degenerate_segments():
    x = np.concatenate([np.full(8, 5.0), [1.0, -1.0] * 4])
    value, skipped = rs_at_scale_with_diagnostics(x, 8)
    assert skipped == 1
    assert value == pytest.approx(rs_oracle(x, 8), rel=1e-12)


def test_standalone_estimate_names_first_all_constant_scale():
    # Constant blocks of 16 at distinct levels: every n = 16 segment is
    # constant, while every longer segment straddles two blocks.
    x = np.repeat(np.arange(16.0), 16)[:250]
    plan = build_partition_plan(250, PartitionPolicy.PRESET_250)
    assert all(rs_at_scale_with_diagnostics(x, n)[1] == 0
               for n in plan.segment_lengths[1:])
    with pytest.raises(AllSegmentsDegenerateError) as info:
        estimate_hurst_rs(x, plan)
    assert str(info.value) == "all 15 segments of length 16 are constant"


def test_dropped_counts_of_partly_constant_series():
    x = white_noise(250, seed=5).copy()
    x[:50] = 1.5
    plan = build_partition_plan(250, PartitionPolicy.PRESET_250)
    diagnostics = [rs_at_scale_with_diagnostics(x, n)
                   for n in plan.segment_lengths]
    assert [d for _, d in diagnostics] == [3, 2, 2, 1, 1, 1, 1, 0, 0, 0]
    for n, (value, _) in zip(plan.segment_lengths, diagnostics):
        assert value == pytest.approx(rs_oracle(x, n), rel=1e-12), n
    estimate = estimate_hurst_rs(x, plan)
    assert estimate.skipped_segments == (
        (16, 3), (20, 2), (25, 2), (31, 1), (35, 1), (41, 1), (50, 1))
    assert estimate.curve.statistics == tuple(v for v, _ in diagnostics)


def test_short_segment_is_an_input_error():
    with pytest.raises(TooShortError,
                       match=r"^segment needs at least 2 values, got 1$") as info:
        segment_stats([1.0])
    assert isinstance(info.value, InputError)


@pytest.mark.parametrize("size, n, message", [
    (16, 1, r"^segment length must be >= 2, got 1$"),
    (16, 17, r"^series of length 16 has no segment of length 17$"),
])
def test_segment_length_out_of_bounds_is_a_plan_error(size, n, message):
    with pytest.raises(InvalidPlanError, match=message):
        rs_at_scale_with_diagnostics(white_noise(size, seed=3), n)


# -- build_partition_plan ----------------------------------------------------

def test_preset_250_plan():
    plan = build_partition_plan(250, PartitionPolicy.PRESET_250)
    assert plan.segment_lengths == (16, 20, 25, 31, 35, 41, 50, 62, 83, 125)


def test_preset_requires_250():
    with pytest.raises(InvalidPlanError):
        build_partition_plan(500, PartitionPolicy.PRESET_250)


def test_divisor_plans():
    plan = build_partition_plan(64, PartitionPolicy.DIVISORS_ONLY)
    assert plan.segment_lengths == (8, 16, 32)
    plan = build_partition_plan(4096, PartitionPolicy.DIVISORS_ONLY)
    assert plan.segment_lengths == (8, 16, 32, 64, 128, 256, 512, 1024, 2048)


def test_explicit_plan_validated():
    # A caller's own lengths are a hand-built plan, which checks them.
    plan = PartitionPlan(300, [10, 30, 60, 100])
    assert plan.segment_lengths == (10, 30, 60, 100)
    with pytest.raises(InvalidPlanError):
        PartitionPlan(300, [10, 30])
    with pytest.raises(InvalidPlanError):
        PartitionPlan(300, [1, 30, 60])


@pytest.mark.parametrize("length, lengths", [
    (250, (16, 20, 25, 31, 35, 41, 50, 62, 83, 125)),
    (500, (10, 20, 25, 50, 100, 125, 250)),
    (40, (8, 10, 20)),
    (251, (8, 16, 32, 64)),
    (1009, (8, 16, 32, 64, 128, 256)),
    (2999, (8, 16, 32, 64, 128, 256, 512, 1024)),
    (4096, (8, 16, 32, 64, 128, 256, 512, 1024, 2048)),
])
def test_auto_plan(length, lengths):
    # preset250 at 250 values, divisors elsewhere, and the doubling
    # lengths when there are fewer than 3 divisors
    plan = build_partition_plan(length, PartitionPolicy.AUTO)
    assert (plan.total_length, plan.segment_lengths) == (length, lengths)


@pytest.mark.parametrize("length, min_segment, message", [
    (15, 8, "length 15 too short for segments of 8"),
    (1, 8, "length 1 too short for segments of 8"),
    (31, 8, "plan yields only 1 scales; need at least 3"),
    (47, 8, "plan yields only 2 scales; need at least 3"),
    (1009, 300, "plan yields only 1 scales; need at least 3"),
    (250, 30, "segment lengths 16..125 out of bounds for length 250 (min 30)"),
    (250, 1, "min_segment_length must be >= 2"),
])
def test_auto_plan_errors(length, min_segment, message):
    with pytest.raises(InvalidPlanError) as info:
        build_partition_plan(length, PartitionPolicy.AUTO, min_segment)
    assert str(info.value) == message


def test_plan_rejects_short_series():
    with pytest.raises(InvalidPlanError):
        build_partition_plan(12, PartitionPolicy.DIVISORS_ONLY)


# -- estimate_hurst_rs -------------------------------------------------------

def test_exact_curve_gives_half():
    scales = (8, 16, 32, 64)
    stats = np.sqrt([scales])
    est = estimate_from_fits(scales, EstimatorKind.RESCALED_RANGE, stats,
                             fit_rows(scales, stats), {})
    assert est.h == pytest.approx(0.5, abs=1e-12)
    assert est.r_squared == pytest.approx(1.0, abs=1e-12)
    assert est.autocorrelation_c == pytest.approx(0.0, abs=1e-12)
    assert est.fractal_dimension == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("h", [-0.3, 0.0, 1e-300, 0.25, 0.5, 0.8, 1.0, 1.7])
@pytest.mark.parametrize("kind", list(EstimatorKind))
def test_derived_values_are_formulas_of_h_and_the_curve(h, kind):
    est = HurstEstimate(h=h, r_squared=0.9, curve=ScalingCurve(
        (8, 16, 32), (1.0, 2.0, 4.0), kind))
    assert est.autocorrelation_c == autocorrelation_from_h(h)
    assert est.autocorrelation_c == 2.0 ** (2.0 * h - 1.0) - 1.0
    if h > 0.0:
        assert est.fractal_dimension == fractal_dimension(h) == 1.0 / h
    else:
        assert est.fractal_dimension is None
    assert est.estimator is est.curve.kind is kind
    assert est.persistence is classify_persistence(h)


def test_white_noise_estimate_in_band():
    x = white_noise(4096, seed=0)
    plan = build_partition_plan(4096, PartitionPolicy.DIVISORS_ONLY)
    est = estimate_hurst_rs(x, plan)
    assert 0.45 <= est.h <= 0.62
    assert est.estimator is EstimatorKind.RESCALED_RANGE
    assert est.curve.scales == plan.segment_lengths


def test_fgn_estimate_near_truth():
    x = fgn(4096, 0.8, seed=21)
    plan = build_partition_plan(4096, PartitionPolicy.DIVISORS_ONLY)
    est = estimate_hurst_rs(x, plan)
    assert abs(est.h - 0.8) < 0.10


def test_affine_invariance_exact():
    rng = np.random.Generator(np.random.PCG64(31))
    x = rng.normal(size=512)
    plan = build_partition_plan(512, PartitionPolicy.DIVISORS_ONLY)
    base = estimate_hurst_rs(x, plan)
    shifted = estimate_hurst_rs(4.0 * x + 3.0, plan)
    # R and S both scale by a and the mean shift cancels; exact in theory,
    # and the power-of-two factor keeps it exact in floating point too.
    assert shifted.h == pytest.approx(base.h, abs=1e-12)
    assert shifted.r_squared == pytest.approx(base.r_squared, abs=1e-12)


@st.composite
def shifted_series(draw):
    """A series with constant runs at 0 and other levels, a window (often
    the preset 250), a lag, a shift, a std mode and a layout: None for
    the default rule, True to read every scale from the windows, False
    to read every scale from the grid by columns."""
    length = draw(st.integers(64, 500))
    window = (250 if length >= 250 and draw(st.booleans())
              else draw(st.integers(64, length)))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2 ** 32))))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    values = rng.standard_normal(length) * scale
    for start, size, level in draw(st.lists(st.tuples(
            st.integers(0, length - 1), st.integers(8, 200),
            st.sampled_from([0.0, 1.5, -2.0])), min_size=1, max_size=3)):
        values[start:start + size] = level * scale
    return (values, window, draw(st.integers(1, 40)),
            draw(st.sampled_from([0.1, 0.3, 0.7, 1e-3, -0.25, 1e3])),
            draw(st.sampled_from(list(StdMode))),
            draw(st.sampled_from([None, True, False])))


def _estimate_or_error(x, plan, std_mode):
    try:
        estimate = estimate_hurst_rs(x, plan, std_mode)
    except HurstLabError as exc:
        return type(exc), str(exc)
    return estimate.skipped_segments, estimate.h


_ZERO_TAIL = white_noise(250, seed=0)
_ZERO_TAIL[100:] = 0.0


@given(case=shifted_series())
@example(case=(_ZERO_TAIL, 250, 1, 0.1, StdMode.POPULATION, None))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_shift_keeps_constant_segments_and_h(case):
    # R/S is invariant under adding a constant. Shifting rounds each value
    # to the shift's ulp, which moves a ratio by about |c| / scale * eps
    # (at most 1e6 * 2.2e-16 here), so h may move by far less than 1e-6;
    # which segments are constant, and so the skipped counts and the
    # all-constant error, must not move at all.
    x, window, lag, c, std_mode, as_rows = case
    plan = build_partition_plan(window, PartitionPolicy.AUTO)
    rule = (_kernels._reads_windows if as_rows is None
            else lambda *args: as_rows)
    with mock.patch.object(_kernels, "_reads_windows", rule):
        stats, defined = rs_curve_rows(x, window, lag, plan.segment_lengths,
                                       std_mode)
        shifted, shifted_defined = rs_curve_rows(
            x + c, window, lag, plan.segment_lengths, std_mode)
    assert defined.tolist() == shifted_defined.tolist()
    np.testing.assert_allclose(shifted, stats, rtol=1e-6)
    for start in (0, (len(stats) - 1) * lag):
        base = _estimate_or_error(x[start:start + window], plan, std_mode)
        moved = _estimate_or_error(x[start:start + window] + c, plan,
                                   std_mode)
        assert moved[0] == base[0]
        if isinstance(base[1], float):
            assert moved[1] == pytest.approx(base[1], abs=1e-6)
        else:
            assert moved[1] == base[1]


def test_monotone_response_in_true_h():
    plan = build_partition_plan(4096, PartitionPolicy.DIVISORS_ONLY)
    means = []
    for h in (0.3, 0.5, 0.7):
        values = [estimate_hurst_rs(fgn(4096, h, seed=400 + s), plan).h
                  for s in range(50)]
        means.append(float(np.mean(values)))
    assert means[0] < means[1] < means[2]


# -- derived formulas --------------------------------------------------------

def test_autocorrelation_values():
    assert autocorrelation_from_h(0.5) == 0.0
    assert autocorrelation_from_h(1.0) == 1.0
    assert autocorrelation_from_h(0.6) == pytest.approx(0.14869835499703509,
                                                        abs=1e-12)


def test_fractal_dimension_values():
    assert fractal_dimension(0.5) == 2.0
    assert fractal_dimension(1.0) == 1.0
    assert fractal_dimension(0.8) == pytest.approx(1.25, abs=1e-15)
    with pytest.raises(NonPositiveHError):
        fractal_dimension(0.0)


def test_persistence_classification():
    assert classify_persistence(0.3) is Persistence.ANTI_PERSISTENT
    assert classify_persistence(0.5) is Persistence.RANDOM
    assert classify_persistence(0.7) is Persistence.PERSISTENT


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("estimate", [
    lambda x: estimate_hurst_rs(x, build_partition_plan(
        x.size, PartitionPolicy.DIVISORS_ONLY)),
    lambda x: rs_at_scale(x, 10),
    lambda x: rs_at_scale_with_diagnostics(x, 10),
    lambda x: segment_stats(x[:10]),
], ids=["estimate_hurst_rs", "rs_at_scale", "rs_at_scale_with_diagnostics",
        "segment_stats"])
def test_non_finite_values_rejected(estimate, bad):
    # A NaN segment used to be skipped as if constant, giving a finite h,
    # and an infinite one leaked a RuntimeWarning.
    x = white_noise(300, seed=5).copy()
    x[7] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSeriesError, match="1 of"):
            estimate(x)
