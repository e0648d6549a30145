import math

import numpy as np
import pytest

from hurstlab.errors import (
    AllSegmentsDegenerateError,
    InvalidPlanError,
    NonPositiveHError,
)
from hurstlab.regression import ScalingCurve
from hurstlab.rescaled_range import (
    EstimatorKind,
    PartitionPolicy,
    Persistence,
    StdMode,
    autocorrelation_from_h,
    build_partition_plan,
    classify_persistence,
    estimate_from_curve,
    estimate_hurst_rs,
    fractal_dimension,
    rs_at_scale,
    rs_at_scale_with_diagnostics,
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
        if s > 0.0:
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
    plan = build_partition_plan(300, PartitionPolicy.EXPLICIT,
                                explicit=[10, 30, 60, 100])
    assert plan.segment_lengths == (10, 30, 60, 100)
    with pytest.raises(InvalidPlanError):
        build_partition_plan(300, PartitionPolicy.EXPLICIT, explicit=[10, 30])
    with pytest.raises(InvalidPlanError):
        build_partition_plan(300, PartitionPolicy.EXPLICIT,
                             explicit=[4, 30, 60])


def test_plan_rejects_short_series():
    with pytest.raises(InvalidPlanError):
        build_partition_plan(12, PartitionPolicy.DIVISORS_ONLY)


# -- estimate_hurst_rs -------------------------------------------------------

def test_exact_curve_gives_half():
    curve = ScalingCurve(scales=(8, 16, 32, 64),
                         statistics=tuple(math.sqrt(n) for n in (8, 16, 32, 64)),
                         kind=EstimatorKind.RESCALED_RANGE)
    est = estimate_from_curve(curve, EstimatorKind.RESCALED_RANGE)
    assert est.h == pytest.approx(0.5, abs=1e-12)
    assert est.r_squared == pytest.approx(1.0, abs=1e-12)
    assert est.autocorrelation_c == pytest.approx(0.0, abs=1e-12)
    assert est.fractal_dimension == pytest.approx(2.0, abs=1e-12)


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
