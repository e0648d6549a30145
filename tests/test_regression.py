import numpy as np
import pytest

from hurstlab.errors import ConfigError, DegenerateCurveError, InvalidCurveError
from hurstlab.regression import EstimatorKind, ScalingCurve, fit_loglog, ols_line


def rs_curve(scales, statistics):
    return ScalingCurve(scales=tuple(scales), statistics=tuple(statistics),
                        kind=EstimatorKind.RESCALED_RANGE)


def oracle_ols(x, y):
    """Textbook normal-equation OLS, independent of the implementation."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    n = x.size
    sx, sy = x.sum(), y.sum()
    sxx, sxy = (x * x).sum(), (x * y).sum()
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    corr = np.corrcoef(x, y)[0, 1]
    return slope, intercept, corr * corr


def test_exact_square_root_power_law():
    fit = fit_loglog(rs_curve([4, 16, 64], [2.0, 4.0, 8.0]))
    assert fit.exponent == pytest.approx(0.5, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert not fit.flat


def test_constant_statistics_flagged_flat():
    fit = fit_loglog(rs_curve([1, 2, 4], [3.0, 3.0, 3.0]))
    assert fit.exponent == 0.0
    assert fit.r_squared == 0.0
    assert fit.flat


def test_noisy_power_law_recovers_exponent():
    rng = np.random.Generator(np.random.PCG64(11))
    scales = np.unique(np.round(np.logspace(1, 3, 20)).astype(int))
    stats = scales ** 0.7 * np.exp(rng.normal(0.0, 0.01, scales.size))
    fit = fit_loglog(rs_curve(scales.tolist(), stats.tolist()))
    slope, intercept, r2 = oracle_ols(np.log(scales), np.log(stats))
    assert fit.exponent == pytest.approx(slope, abs=1e-12)
    assert fit.intercept == pytest.approx(intercept, abs=1e-12)
    assert fit.r_squared == pytest.approx(r2, abs=1e-10)
    assert abs(fit.exponent - 0.7) < 0.03


def test_exact_power_law_grid():
    scales = [3, 9, 27, 81]
    for beta in (-0.5, 0.0, 0.3, 1.0, 1.7):
        stats = [2.5 * s ** beta for s in scales]
        if beta == 0.0:
            fit = fit_loglog(rs_curve(scales, stats))
            assert fit.flat and fit.exponent == 0.0
            continue
        fit = fit_loglog(rs_curve(scales, stats))
        assert fit.exponent == pytest.approx(beta, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-10)


def test_statistic_scaling_moves_only_intercept():
    scales = [8, 16, 32, 64]
    stats = [1.3, 2.9, 3.7, 6.1]
    base = fit_loglog(rs_curve(scales, stats))
    scaled = fit_loglog(rs_curve(scales, [7.0 * s for s in stats]))
    assert scaled.exponent == pytest.approx(base.exponent, abs=1e-12)
    assert scaled.r_squared == pytest.approx(base.r_squared, abs=1e-12)
    assert scaled.intercept == pytest.approx(base.intercept + np.log(7.0),
                                             abs=1e-12)


def test_scale_rescaling_keeps_exponent():
    scales = [8, 16, 32, 64]
    stats = [1.3, 2.9, 3.7, 6.1]
    base = fit_loglog(rs_curve(scales, stats))
    rescaled = fit_loglog(rs_curve([3 * s for s in scales], stats))
    assert rescaled.exponent == pytest.approx(base.exponent, abs=1e-12)


def test_too_few_points_rejected():
    with pytest.raises(DegenerateCurveError):
        rs_curve([4, 16], [2.0, 4.0])


def test_nonpositive_statistic_rejected():
    with pytest.raises(DegenerateCurveError):
        rs_curve([4, 16, 64], [2.0, 0.0, 8.0])


def test_scales_must_increase():
    with pytest.raises(ValueError):
        rs_curve([4, 4, 64], [2.0, 4.0, 8.0])


def test_ols_line_zero_x_variance():
    with pytest.raises(DegenerateCurveError):
        ols_line(np.array([2.0, 2.0, 2.0]), np.array([1.0, 2.0, 3.0]))


@pytest.mark.parametrize("scales, statistics, message", [
    ([4, 16, 64], [2.0, 4.0], "scales and statistics differ in length"),
    ([4, 16, 16], [2.0, 4.0, 8.0], "scales must be strictly increasing"),
    ([0, 16, 64], [2.0, 4.0, 8.0], "scales must be positive"),
])
def test_malformed_curve_raises_typed_config_error(scales, statistics, message):
    with pytest.raises(InvalidCurveError) as info:
        rs_curve(scales, statistics)
    assert str(info.value) == message
    assert isinstance(info.value, ConfigError)
    assert isinstance(info.value, ValueError)  # what these sites raised before
