import math
import warnings

import numpy as np
import pytest

from hurstlab.dfa import (
    DfaConfig,
    FitTarget,
    default_box_sizes,
    dfa_fit_rows,
    dfa_fluctuation,
    estimate_hurst_dfa,
)
from hurstlab.errors import (
    BoxTooLargeError,
    DegenerateCurveError,
    InputError,
    InvalidPlanError,
    InvalidSeriesError,
)
from hurstlab.rescaled_range import EstimatorKind
from hurstlab.synthetic import fgn, white_noise


def dfa_oracle(series, tau, integrate=True):
    """Per-box polyfit reimplementation, independent of the kernel."""
    x = np.asarray(series, dtype=float)
    if integrate:
        x = np.cumsum(x - x.mean())
    boxes = x.size // tau
    t = np.arange(tau, dtype=float)
    fsq = []
    for b in range(boxes):
        seg = x[b * tau:(b + 1) * tau]
        trend = np.polyval(np.polyfit(t, seg, 1), t)
        fsq.append(float(((seg - trend) ** 2).sum() / tau))
    return float(np.mean(fsq))


def raw_config(box_sizes=(4, 8, 16)):
    return DfaConfig(box_sizes=box_sizes, integrate_first=False)


# -- dfa_fluctuation ---------------------------------------------------------

def test_linear_series_detrends_exactly():
    x = 3.0 * np.arange(32.0) - 5.0
    for tau in (4, 8, 16):
        assert dfa_fluctuation(x, tau, raw_config()) == pytest.approx(0.0, abs=1e-18)


def test_square_wave_matches_oracle():
    x = np.array([0.0, 1.0] * 4)
    value = dfa_fluctuation(x, 4, raw_config())
    assert value == pytest.approx(dfa_oracle(x, 4, integrate=False), abs=1e-12)


def test_fluctuation_oracle_corpus_short_series():
    rng = np.random.Generator(np.random.PCG64(77))
    for trial in range(50):
        length = int(rng.integers(16, 65))
        x = rng.normal(size=length)
        for tau in (4, 8):
            got = dfa_fluctuation(x, tau, raw_config())
            assert got == pytest.approx(dfa_oracle(x, tau, integrate=False),
                                        abs=1e-10), (trial, tau)
            got = dfa_fluctuation(x, tau)
            assert got == pytest.approx(dfa_oracle(x, tau, integrate=True),
                                        abs=1e-10), (trial, tau)


def test_box_too_large():
    with pytest.raises(BoxTooLargeError):
        dfa_fluctuation(white_noise(16, seed=1), 16)


def test_shift_invariance_exact():
    x = white_noise(256, seed=3)
    base = dfa_fluctuation(x, 8, raw_config())
    shifted = dfa_fluctuation(x + 11.0, 8, raw_config())
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

def test_exact_squared_curve_slope_one():
    taus = (8, 16, 32, 64)
    h, _, r_squared, _ = dfa_fit_rows(taus, np.array(taus, dtype=float),
                                      FitTarget.FLUCTUATION_SQUARED)
    assert h == pytest.approx(1.0, abs=1e-12)
    assert r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_targets_differ_by_factor_two():
    x = fgn(2048, 0.7, seed=99)
    config_rms = DfaConfig(box_sizes=default_box_sizes(2048))
    config_sq = DfaConfig(box_sizes=default_box_sizes(2048),
                          fit_target=FitTarget.FLUCTUATION_SQUARED)
    h_rms = estimate_hurst_dfa(x, config_rms).h
    h_sq = estimate_hurst_dfa(x, config_sq).h
    assert h_sq == pytest.approx(2.0 * h_rms, abs=1e-12)


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


def test_linear_series_curve_degenerate():
    x = np.arange(64.0)
    config = DfaConfig(box_sizes=(4, 8, 16), integrate_first=False)
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


@pytest.mark.parametrize("min_box", [0, -1, 3])
def test_default_box_sizes_rejects_boxes_below_four(min_box):
    # min_box <= 0 used to double forever
    with pytest.raises(InvalidPlanError, match="box sizes must be >= 4"):
        default_box_sizes(1000, min_box)


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
