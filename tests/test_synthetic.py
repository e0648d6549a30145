import numpy as np
import pytest

from hurstlab import synthetic
from hurstlab.errors import (
    ConfigError,
    FactorizationFailureError,
    HOutOfRangeError,
    LengthTooLargeError,
)
from hurstlab.series import PriceSeries
from hurstlab.synthetic import (
    DENSE_FGN_MAX,
    MAX_EXACT_LENGTH,
    GeneratorKind,
    GeneratorSpec,
    fbm,
    fgn,
    fgn_autocovariance,
    generate,
    random_walk_prices,
    white_noise,
)


def sample_autocov(x, lag):
    dev = x - x.mean()
    return float((dev[lag:] * dev[:-lag]).mean())


# -- autocovariance formula --------------------------------------------------

def test_autocov_lag_zero_is_one():
    for h in (0.1, 0.3, 0.5, 0.7, 0.9):
        assert fgn_autocovariance(h, 0) == pytest.approx(1.0, abs=1e-15)


def test_autocov_half_is_white():
    for lag in (1, 2, 5, 100):
        assert fgn_autocovariance(0.5, lag) == pytest.approx(0.0, abs=1e-15)


def test_autocov_frozen_value():
    # 0.5 * (2^1.4 - 2) evaluated independently
    assert fgn_autocovariance(0.7, 1) == pytest.approx(0.3195079107728942,
                                                       abs=1e-14)


def test_autocov_rejects_bad_h():
    with pytest.raises(HOutOfRangeError):
        fgn_autocovariance(0.0, 1)
    with pytest.raises(HOutOfRangeError):
        fgn_autocovariance(1.0, 1)


# -- determinism -------------------------------------------------------------

def test_same_seed_bit_identical():
    for maker in (lambda: white_noise(512, seed=4),
                  lambda: fgn(512, 0.7, seed=4),
                  lambda: fbm(512, 0.3, seed=4)):
        a, b = maker(), maker()
        assert np.array_equal(a, b)


def test_different_seeds_differ():
    assert not np.array_equal(white_noise(64, seed=1), white_noise(64, seed=2))


def test_price_series_deterministic():
    a = random_walk_prices(100, seed=9, drift=0.001, volatility=0.02)
    b = random_walk_prices(100, seed=9, drift=0.001, volatility=0.02)
    assert a.closes.tolist() == b.closes.tolist()
    assert a.dates == b.dates


def test_generate_dispatch_matches_direct_calls():
    spec = GeneratorSpec(kind=GeneratorKind.FGN, length=256, seed=3, h=0.6)
    assert np.array_equal(generate(spec), fgn(256, 0.6, seed=3))
    spec = GeneratorSpec(kind=GeneratorKind.WHITE_NOISE, length=256, seed=3)
    assert np.array_equal(generate(spec), white_noise(256, seed=3))


# -- fgn exactness -----------------------------------------------------------

def test_fgn_half_reduces_to_white_noise():
    x = fgn(2 ** 14, 0.5, seed=100)
    assert abs(sample_autocov(x, 1)) < 0.03
    assert np.array_equal(x, white_noise(2 ** 14, seed=100))


def test_fgn_lag_one_autocov_dense_path():
    # n = 4096 runs through the Schur-factored Toeplitz route
    values = [sample_autocov(fgn(4096, 0.7, seed=s), 1) for s in range(8)]
    assert abs(np.mean(values) - 0.3195079107728942) < 0.03


def reference_factor(h, n):
    """Dense LAPACK Cholesky of the fGn Toeplitz covariance.

    gamma is evaluated by the same numpy expression as the generator's:
    at h = 0.95 the covariance is ill-conditioned enough that the last-ulp
    differences of the scalar fgn_autocovariance move the factor by ~1e-10.
    """
    lags = np.arange(n)
    e = 2.0 * h
    gamma = 0.5 * (np.abs(lags + 1) ** e - 2.0 * np.abs(lags) ** e
                   + np.abs(lags - 1) ** e)
    return np.linalg.cholesky(gamma[np.abs(lags[:, None] - lags[None, :])])


@pytest.mark.parametrize("h", [0.05, 0.3, 0.7, 0.95])
@pytest.mark.parametrize("n", [2, 3, 257, 1024])
def test_schur_factor_matches_dense_cholesky(h, n):
    factor = synthetic._cholesky_factor(h, n)
    reference = reference_factor(h, n)
    assert np.array_equal(factor, np.tril(factor))
    assert np.abs(factor - reference).max() <= 1e-12


@pytest.mark.parametrize("h", [0.05, 0.3, 0.7, 0.95])
def test_fgn_matches_dense_reference_draw(h):
    n, seed = 1024, 17
    z = np.random.Generator(np.random.PCG64(seed)).standard_normal(n)
    expected = reference_factor(h, n) @ z
    assert np.abs(fgn(n, h, seed=seed) - expected).max() <= 1e-10


def test_schur_rejects_indefinite_toeplitz():
    with pytest.raises(FactorizationFailureError):
        synthetic._toeplitz_cholesky(np.array([1.0, 1.5]))
    with pytest.raises(FactorizationFailureError):
        synthetic._toeplitz_cholesky(np.array([1.0, 1.0, 1.0]))


def test_fgn_lag_one_autocov_circulant_path():
    x = fgn(2 ** 14, 0.7, seed=11)
    assert x.size == 2 ** 14
    assert abs(sample_autocov(x, 1) - 0.3195079107728942) < 0.03


def test_dense_and_circulant_paths_agree_statistically():
    # Both construct the same exact law; compare sample lag-1 autocov of
    # the dense route at n=2048 against the circulant route forced via a
    # larger length, at h = 0.3 (negative correlation).
    target = fgn_autocovariance(0.3, 1)
    dense = np.mean([sample_autocov(fgn(2048, 0.3, seed=s), 1)
                     for s in range(10)])
    circulant = sample_autocov(fgn(DENSE_FGN_MAX * 4, 0.3, seed=0), 1)
    assert abs(dense - target) < 0.03
    assert abs(circulant - target) < 0.03


def test_fgn_unit_variance():
    x = fgn(2 ** 13, 0.7, seed=21)
    assert abs(x.var() - 1.0) < 0.15


def test_prices_reject_non_finite_walk():
    for drift, vol in ((0.0, 1e308), (-1e308, 1.0), (1e300, 1.0)):
        with pytest.raises(ConfigError):
            random_walk_prices(64, seed=0, drift=drift, volatility=vol)


def test_fgn_rejects_out_of_range():
    with pytest.raises(HOutOfRangeError):
        fgn(100, 1.2, seed=0)
    with pytest.raises(LengthTooLargeError):
        fgn(MAX_EXACT_LENGTH + 1, 0.7, seed=0)


# -- fbm ---------------------------------------------------------------------

def test_fbm_starts_at_zero():
    for h in (0.3, 0.5, 0.8):
        assert fbm(128, h, seed=5)[0] == 0.0


def test_fbm_variance_law():
    # var(X(t+k) - X(t)) ~ k^{2H}: slope of log sample variance on log k
    # within +/-0.1 of 2H, averaged over 20 seeds at n = 2^14.
    for truth in (0.3, 0.7):
        slopes = []
        lags = np.array([1, 2, 4, 8, 16])
        for seed in range(20):
            path = fbm(2 ** 14, truth, seed=3000 + seed)
            variances = [np.var(path[k:] - path[:-k]) for k in lags]
            slope = np.polyfit(np.log(lags), np.log(variances), 1)[0]
            slopes.append(slope)
        assert abs(np.mean(slopes) - 2.0 * truth) < 0.1


# -- prices ------------------------------------------------------------------

def test_prices_positive_and_valid():
    prices = random_walk_prices(500, seed=13, drift=-0.05, volatility=0.4)
    assert isinstance(prices, PriceSeries)
    assert np.all(prices.closes > 0.0)
    assert len(prices) == 500


def test_prices_log_returns_recover_white_noise():
    prices = random_walk_prices(1001, seed=17, drift=0.0, volatility=1.0)
    returns = np.diff(np.log(prices.closes))
    assert returns == pytest.approx(white_noise(1000, seed=17), abs=1e-9)
