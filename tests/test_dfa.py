import math
import warnings

import numpy as np
import pytest

from hurstlab.dfa import (
    DfaConfig,
    default_box_sizes,
    dfa_fluctuation,
    estimate_hurst_dfa,
)
from hurstlab.errors import (
    BoxTooLargeError,
    DegenerateCurveError,
    InvalidPlanError,
    InvalidSeriesError,
)
from hurstlab.regression import fit_loglog
from hurstlab.rescaled_range import EstimatorKind
from hurstlab.synthetic import fgn, white_noise


def dfa_oracle(series, tau):
    """Per-box polyfit of the profile, independent of the kernel."""
    x = np.asarray(series, dtype=float)
    x = np.cumsum(x - x.mean())
    boxes = x.size // tau
    t = np.arange(tau, dtype=float)
    fsq = []
    for b in range(boxes):
        seg = x[b * tau:(b + 1) * tau]
        trend = np.polyval(np.polyfit(t, seg, 1), t)
        fsq.append(float(((seg - trend) ** 2).sum() / tau))
    return float(np.mean(fsq))


# -- dfa_fluctuation ---------------------------------------------------------

def test_fluctuation_is_the_curve_statistic_bit_for_bit():
    for seed in range(5):
        x = white_noise(4096, seed=seed)
        config = DfaConfig(default_box_sizes(x.size))
        assert estimate_hurst_dfa(x, config).curve.statistics == tuple(
            dfa_fluctuation(x, tau) for tau in config.box_sizes)


def test_constant_series_gives_zero():
    # The mean of 0.1s is not exactly 0.1; the profile is still flat.
    x = np.full(32, 0.1)
    for tau in (4, 8, 16):
        assert dfa_fluctuation(x, tau) == 0.0


def test_square_wave_matches_oracle():
    x = np.array([0.0, 1.0] * 4)
    value = dfa_fluctuation(x, 4)
    assert value == pytest.approx(dfa_oracle(x, 4), abs=1e-12)


def test_fluctuation_oracle_corpus_short_series():
    rng = np.random.Generator(np.random.PCG64(77))
    for trial in range(50):
        length = int(rng.integers(16, 65))
        x = rng.normal(size=length)
        for tau in (4, 8):
            got = dfa_fluctuation(x, tau)
            assert got == pytest.approx(dfa_oracle(x, tau), abs=1e-10), (trial, tau)


def test_box_too_large():
    with pytest.raises(BoxTooLargeError):
        dfa_fluctuation(white_noise(16, seed=1), 16)


def test_shift_invariance_exact():
    x = white_noise(256, seed=3)
    base = dfa_fluctuation(x, 8)
    shifted = dfa_fluctuation(x + 11.0, 8)
    assert shifted == pytest.approx(base, rel=1e-9)


def test_scale_covariance():
    x = white_noise(256, seed=4)
    base = dfa_fluctuation(x, 8)
    scaled = dfa_fluctuation(5.0 * x, 8)
    assert scaled == pytest.approx(25.0 * base, rel=1e-9)


def test_white_noise_rms_slope_near_half():
    x = white_noise(4096, seed=8)
    curve = estimate_hurst_dfa(
        x, DfaConfig(box_sizes=tuple(2 ** k for k in range(3, 10)))).curve
    log_tau = np.log(np.array(curve.scales, dtype=float))
    log_f = 0.5 * np.log(np.array(curve.statistics, dtype=float))
    slope = np.polyfit(log_tau, log_f, 1)[0]
    assert abs(slope - 0.5) < 0.05


# -- estimate_hurst_dfa ------------------------------------------------------

def test_config_is_its_box_schedule():
    assert DfaConfig._fields == ("box_sizes",)


@pytest.mark.parametrize("h, n, seed", [
    (0.3, 1000, 1), (0.5, 1111, 2), (0.7, 2048, 99), (0.9, 1199, 4)])
def test_squared_fluctuation_slope_is_exactly_twice_h(h, n, seed):
    """h is the slope of log sqrt(<F^2>); the slope of log <F^2>, the fit
    of the curve as given, is 2h bit for bit, as halving the log ordinate
    is exact."""
    est = estimate_hurst_dfa(fgn(n, h, seed=seed),
                             DfaConfig(default_box_sizes(n)))
    fit = fit_loglog(est.curve)
    assert fit.exponent == 2 * est.h
    assert fit.r_squared == est.r_squared


def test_fgn_07_recovery():
    x = fgn(4096, 0.7, seed=42)
    est = estimate_hurst_dfa(x, DfaConfig(box_sizes=default_box_sizes(4096)))
    assert abs(est.h - 0.7) < 0.07
    assert est.estimator is EstimatorKind.DFA


def test_white_noise_recovery():
    x = white_noise(4096, seed=43)
    est = estimate_hurst_dfa(x, DfaConfig(box_sizes=default_box_sizes(4096)))
    assert abs(est.h - 0.5) < 0.05


def test_cross_estimator_consistency():
    from hurstlab.rescaled_range import PartitionPolicy, build_partition_plan, estimate_hurst_rs

    plan = build_partition_plan(4096, PartitionPolicy.DIVISORS_ONLY)
    config = DfaConfig(box_sizes=default_box_sizes(4096))
    for truth in (0.3, 0.5, 0.7):
        rs_err, dfa_err = [], []
        for seed in range(50):
            x = fgn(4096, truth, seed=7000 + seed)
            rs_err.append(abs(estimate_hurst_rs(x, plan).h - truth))
            dfa_err.append(abs(estimate_hurst_dfa(x, config).h - truth))
        assert np.mean(dfa_err) <= np.mean(rs_err) + 0.05


def test_constant_series_curve_degenerate():
    x = np.full(64, 0.1)
    config = DfaConfig(box_sizes=(4, 8, 16))
    with pytest.raises(DegenerateCurveError):
        estimate_hurst_dfa(x, config)


def test_config_validation():
    with pytest.raises(InvalidPlanError):
        DfaConfig(box_sizes=(4, 8))
    with pytest.raises(InvalidPlanError):
        DfaConfig(box_sizes=(2, 4, 8))
    with pytest.raises(InvalidPlanError):
        DfaConfig(box_sizes=(8, 8, 16))
    with pytest.raises(BoxTooLargeError):
        estimate_hurst_dfa(white_noise(60, seed=0), DfaConfig(box_sizes=(4, 8, 16)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("estimate", [
    lambda x: estimate_hurst_dfa(x, DfaConfig(box_sizes=default_box_sizes(300))),
    lambda x: dfa_fluctuation(x, 8),
], ids=["estimate_hurst_dfa", "dfa_fluctuation"])
def test_non_finite_values_rejected(estimate, bad):
    x = white_noise(300, seed=5).copy()
    x[7] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSeriesError, match="1 of 300"):
            estimate(x)
