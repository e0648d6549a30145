import datetime as dt

import numpy as np
import pytest

from hurstlab import synthetic
from hurstlab.errors import (
    ConfigError,
    FactorizationFailureError,
    HOutOfRangeError,
    LengthTooLargeError,
    UnknownKindError,
)
from hurstlab.series import PriceSeries
from hurstlab.synthetic import (
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


def test_autocov_matches_mpmath():
    # Reference: the textbook second difference at 50 digits. The factored
    # form's error grows like one rounding per lag, k * eps * |gamma(k)|;
    # the eps term covers h = 0.5, where gamma vanishes.
    import mpmath

    eps = np.finfo(np.float64).eps
    lags = np.array([0, 1, 2, 3, 4, 5, 7, 10, 31, 100, 255, 256, 1000, 4095,
                     4096, 65535, 65536])
    for h in (1e-9, 0.01, 0.05, 0.3, 0.49, 0.5, 0.51, 0.7, 0.9, 0.99,
              0.9999999, 1.0 - 2.0 ** -40):
        gamma = synthetic._fgn_gamma(h, lags)
        with mpmath.workdps(50):
            e = 2 * mpmath.mpf(h)
            ref = [float((abs(mpmath.mpf(k + 1)) ** e - 2 * mpmath.mpf(k) ** e
                          + abs(mpmath.mpf(k - 1)) ** e) / 2)
                   for k in lags.tolist()]
        for k, got, want in zip(lags.tolist(), gamma.tolist(), ref):
            assert abs(got - want) <= 4 * eps * max(k, 1) * abs(want) + eps, (h, k)


def test_autocov_series_lags_match_mpmath_to_rounding():
    # From SERIES_FROM_LAG on, the 1/k^2 series carries no error that
    # grows with k: within a few eps of gamma(k) at every lag, h near 1
    # included.
    import mpmath

    eps = np.finfo(np.float64).eps
    lags = np.array([synthetic.SERIES_FROM_LAG, 65, 100, 1000, 4097, 65535,
                     65536, 131072])
    for h in (1e-9, 0.01, 0.2, 0.49, 0.5000001, 0.51, 0.8, 0.99, 0.9999999,
              0.99999999999, 0.9999999999933364, 1.0 - 2.0 ** -40):
        gamma = synthetic._fgn_gamma(h, lags)
        with mpmath.workdps(50):
            e = 2 * mpmath.mpf(h)
            ref = [float((mpmath.mpf(k + 1) ** e - 2 * mpmath.mpf(k) ** e
                          + mpmath.mpf(k - 1) ** e) / 2)
                   for k in lags.tolist()]
        for k, got, want in zip(lags.tolist(), gamma.tolist(), ref):
            assert abs(got - want) <= 4 * eps * abs(want), (h, k)


@pytest.mark.parametrize("h", [0.99, 0.999999, 0.99999999999,
                               0.9999999999933364, 1.0 - 2.0 ** -40])
def test_circulant_embedding_non_negative_near_one_at_long_length(h):
    # The embedding is exactly non-negative definite; with the series the
    # computed eigenvalues stay within rounding of that at long lengths
    # too, so fgn takes any length the synthetic calendar holds.
    n = 2 ** 18
    gamma = synthetic._fgn_gamma(h, np.arange(n + 1))
    eigs = np.fft.fft(np.concatenate([gamma, gamma[n - 1:0:-1]])).real
    assert eigs.min() > -1e-10
    assert np.isfinite(fgn(n, h, seed=0)).all()


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
    # The fields a kind does not read, at their defaults, are accepted
    spec = GeneratorSpec(GeneratorKind.FBM, 256, 3, 0.6, -0.0, 1.0)
    assert np.array_equal(generate(spec), fbm(256, 0.6, seed=3))


@pytest.mark.parametrize("kind, fields", [
    (GeneratorKind.RANDOM_WALK_PRICES, dict(h=0.7)),
    (GeneratorKind.WHITE_NOISE, dict(h=0.2)),
    (GeneratorKind.WHITE_NOISE, dict(volatility=50.0)),
    (GeneratorKind.WHITE_NOISE, dict(drift=3.0)),
    (GeneratorKind.FGN, dict(h=0.7, drift=0.1)),
    (GeneratorKind.FBM, dict(h=0.7, volatility=2.0)),
])
def test_generate_rejects_fields_its_kind_does_not_read(kind, fields):
    # Each was silently ignored: the spec drew what the default did.
    with pytest.raises(ConfigError, match=f"kind {kind.value} does not read"):
        generate(GeneratorSpec(kind, 64, 1, **fields))


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


def test_indefinite_embedding_is_a_factorization_failure(monkeypatch):
    # gamma(1) = 2 > gamma(0) is no autocovariance: the circulant's
    # eigenvalues 1 + 4 cos(theta) reach -3.
    monkeypatch.setattr(synthetic, "_fgn_gamma", lambda h, lags: np.where(
        lags == 1, 2.0, (lags == 0).astype(np.float64)))
    with pytest.raises(FactorizationFailureError, match="eigenvalue -3.000e"):
        fgn(64, 0.7, seed=0)


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


@pytest.mark.parametrize("length", [1, 0, -5])
def test_prices_reject_lengths_below_two(length):
    with pytest.raises(ConfigError) as info:
        random_walk_prices(length, seed=1)
    assert str(info.value) == f"length must be >= 2, got {length}"


def test_prices_reject_lengths_past_the_calendar():
    with pytest.raises(LengthTooLargeError, match="length must be <="):
        random_walk_prices(synthetic.MAX_CALENDAR_LENGTH + 1, seed=1)


def test_prices_are_dated_by_the_synthetic_calendar():
    prices = random_walk_prices(3, seed=1)
    assert prices.dates == synthetic.synthetic_calendar(3) == tuple(
        synthetic.SYNTHETIC_EPOCH + dt.timedelta(days=i) for i in range(3))


def test_prices_log_returns_recover_white_noise():
    prices = random_walk_prices(1001, seed=17, drift=0.0, volatility=1.0)
    returns = np.diff(np.log(prices.closes))
    assert returns == pytest.approx(white_noise(1000, seed=17), abs=1e-9)


def test_unknown_kind_raises_typed_config_error():
    with pytest.raises(UnknownKindError) as info:
        generate(GeneratorSpec(kind="brownian", length=10, seed=0))
    assert str(info.value) == "unknown kind 'brownian', expected a GeneratorKind"
    assert isinstance(info.value, ConfigError)
    assert isinstance(info.value, ValueError)
