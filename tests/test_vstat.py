import math

import pytest

from hurstlab.errors import ConfigError, InvalidCurveError
from hurstlab.regression import EstimatorKind, ScalingCurve
from hurstlab.rescaled_range import PartitionPolicy, build_partition_plan, estimate_hurst_rs
from hurstlab.synthetic import fgn, white_noise
from hurstlab.vstat import Trend, v_statistic


def rs_curve(scales, statistics):
    return ScalingCurve(scales=tuple(scales), statistics=tuple(statistics),
                        kind=EstimatorKind.RESCALED_RANGE)


def test_exact_sqrt_curve_is_flat():
    scales = (16, 32, 64, 128)
    curve = v_statistic(rs_curve(scales, [math.sqrt(n) for n in scales]))
    assert curve.trend is Trend.FLAT
    assert curve.slope == pytest.approx(0.0, abs=1e-12)
    assert all(v == pytest.approx(1.0, abs=1e-12) for v in curve.v_values)


def test_persistent_power_law_increases():
    scales = (16, 32, 64, 128)
    curve = v_statistic(rs_curve(scales, [n ** 0.7 for n in scales]))
    assert curve.trend is Trend.INCREASING
    assert curve.slope > 0


def test_antipersistent_power_law_decreases():
    scales = (16, 32, 64, 128)
    curve = v_statistic(rs_curve(scales, [n ** 0.3 for n in scales]))
    assert curve.trend is Trend.DECREASING


def test_v_reconstructs_statistic_exactly():
    scales = (8, 16, 32, 64)
    stats = [1.7, 2.9, 4.1, 5.3]
    curve = v_statistic(rs_curve(scales, stats))
    for log_n, v, n, stat in zip(curve.log_scales, curve.v_values, scales, stats):
        assert log_n == pytest.approx(math.log(n), abs=1e-15)
        assert v * math.sqrt(n) == pytest.approx(stat, abs=1e-12)


def test_fgn_antipersistent_decreasing():
    plan = build_partition_plan(4096, PartitionPolicy.DIVISORS_ONLY)
    est = estimate_hurst_rs(fgn(4096, 0.2, seed=1), plan)
    assert v_statistic(est.curve).trend is Trend.DECREASING


def test_peak_scale_diagnostic():
    scales = (8, 16, 32, 64)
    stats = [2.0, 5.0, 7.0, 7.5]  # v peaks at n=16 (5/4 = 1.25)
    curve = v_statistic(rs_curve(scales, stats))
    assert curve.peak_scale == 16


def test_rejects_dfa_curves():
    curve = ScalingCurve(scales=(8, 16, 32), statistics=(1.0, 2.0, 4.0),
                        kind=EstimatorKind.DFA)
    with pytest.raises(ValueError):
        v_statistic(curve)


def test_dfa_curve_raises_typed_config_error():
    curve = ScalingCurve(scales=(8, 16, 32), statistics=(1.0, 2.0, 4.0),
                         kind=EstimatorKind.DFA)
    with pytest.raises(InvalidCurveError) as info:
        v_statistic(curve)
    assert str(info.value) == "V statistic is defined on rescaled-range curves"
    assert isinstance(info.value, ConfigError)


def test_regime_sign_rates_over_seeds():
    # Calibration contract for the default flat band: white noise mostly
    # flat, strongly persistent / anti-persistent fGn almost never flat.
    plan = build_partition_plan(4096, PartitionPolicy.DIVISORS_ONLY)

    def trend_for(x):
        return v_statistic(estimate_hurst_rs(x, plan).curve).trend

    flat = sum(trend_for(white_noise(4096, seed=s)) is Trend.FLAT
               for s in range(20))
    inc = sum(trend_for(fgn(4096, 0.8, seed=500 + s)) is Trend.INCREASING
              for s in range(20))
    dec = sum(trend_for(fgn(4096, 0.2, seed=600 + s)) is Trend.DECREASING
              for s in range(20))
    assert flat >= 16
    assert inc >= 18
    assert dec >= 18
