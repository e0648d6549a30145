import numpy as np
import pytest

from hurstlab import synthetic
from hurstlab.errors import (
    ConfigError,
    HOutOfRangeError,
    LengthTooLargeError,
)
from hurstlab.series import PriceSeries
from hurstlab.synthetic import (
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


@pytest.mark.parametrize("h", [1e-9, 0.05, 0.3, 0.5, 0.7, 0.95, 0.9999999])
def test_autocov_is_the_vectorised_gamma(h):
    # One recipe: the scalar formula reads the vector the circulant embeds.
    lags = np.arange(4097)
    gamma = synthetic._fgn_gamma(h, lags)
    for k in list(range(40)) + [255, 256, 257, 1024, 4095, 4096]:
        assert fgn_autocovariance(h, k) == gamma[k]
        assert fgn_autocovariance(h, -k) == gamma[k]


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
    # n = 4096 over 8 seeds, the length the seeded ground-truth checks use
    values = [sample_autocov(fgn(4096, 0.7, seed=s), 1) for s in range(8)]
    assert abs(np.mean(values) - 0.3195079107728942) < 0.03


@pytest.mark.parametrize("h", [0.05, 0.3, 0.7, 0.95])
@pytest.mark.parametrize("n", [2, 3, 257, 1024, 4096])
def test_circulant_embedding_reproduces_autocovariance(h, n):
    # The squared amplitudes are the circulant's eigenvalues; its first row,
    # and so the covariance of the draw, must be gamma at lags 0 .. n-1.
    sqrt_eigs = synthetic._circulant_sqrt_eigs(h, n)
    implied = np.fft.ifft(sqrt_eigs ** 2).real[:n]
    assert np.abs(implied - synthetic._fgn_gamma(h, np.arange(n))).max() <= 1e-12


def test_fgn_lag_one_autocov_circulant_path():
    x = fgn(2 ** 14, 0.7, seed=11)
    assert x.size == 2 ** 14
    assert abs(sample_autocov(x, 1) - 0.3195079107728942) < 0.03


def test_short_and_long_draws_agree_statistically():
    # Sample lag-1 autocov at h = 0.3 (negative correlation): the mean over
    # ten n = 2048 draws and one n = 16384 draw both match the exact law.
    target = fgn_autocovariance(0.3, 1)
    short = np.mean([sample_autocov(fgn(2048, 0.3, seed=s), 1)
                     for s in range(10)])
    long = sample_autocov(fgn(16384, 0.3, seed=0), 1)
    assert abs(short - target) < 0.03
    assert abs(long - target) < 0.03


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


@pytest.mark.parametrize("length", [0, -1, -4096])
@pytest.mark.parametrize("h", [0.5, 0.7])
def test_lengths_below_one_are_config_errors(length, h):
    for generator in (fgn, fbm):
        with pytest.raises(ConfigError, match="length must be >= 1"):
            generator(length, h, seed=0)


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
