"""Seeded ground-truth generators: white noise, fGn, fBm, random-walk prices.

Fractional Gaussian noise is generated exactly at every length by the
circulant embedding of its Toeplitz covariance (Davies and Harte): the
autocovariance vector is embedded in a circulant of size 2n, which is
non-negative definite for every h in (0, 1) (Dietrich and Newsam). One
FFT gives the circulant's eigenvalues; a second FFT of complex Gaussian
noise scaled by their square roots gives the draw. O(n log n) time and
O(n) memory, and the module keeps no state between calls. Draws come
from a seeded PCG64 stream, so identical specs yield bit-identical
output.
"""
from __future__ import annotations

import datetime as dt
from enum import Enum

import numpy as np

from ._record import Record
from .errors import (
    ConfigError,
    FactorizationFailureError,
    HOutOfRangeError,
    LengthTooLargeError,
    UnknownKindError,
    require_float,
    require_instance,
    require_int,
)
from .series import PriceSeries

#: Synthetic calendars start here (a Monday), one observation per day.
SYNTHETIC_EPOCH = dt.date(2000, 1, 3)

#: Longest synthetic calendar: its last date is dt.date.max.
MAX_CALENDAR_LENGTH = (dt.date.max - SYNTHETIC_EPOCH).days + 1

#: First close of every random-walk price series.
WALK_START = 100.0


class GeneratorKind(Enum):
    WHITE_NOISE = "white-noise"
    FGN = "fgn"
    FBM = "fbm"
    RANDOM_WALK_PRICES = "prices"


class GeneratorSpec(Record):
    """Deterministic description of one synthetic series."""

    kind: GeneratorKind
    length: int
    seed: int
    h: float | None = None
    drift: float = 0.0
    volatility: float = 1.0


def fgn_autocovariance(h: float, k: int) -> float:
    """Autocovariance of unit-variance fGn at lag k.

    gamma(k) = 0.5 * (|k+1|^2h - 2|k|^2h + |k-1|^2h); gamma(0) = 1 and
    every lag vanishes at h = 0.5 (independent increments).
    """
    k, h = require_int(k, "lag"), _check_h(h)
    return float(_fgn_gamma(h, np.array([abs(k)]))[0])


def _check_h(h: float) -> float:
    """h as a float strictly inside (0, 1); anything else raises."""
    h = require_float(h, "h")
    if not 0.0 < h < 1.0:
        raise HOutOfRangeError(f"h must be in (0, 1), got {h}")
    return h


def _rng(seed: int) -> np.random.Generator:
    seed = require_int(seed, "seed")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    # PCG64 pinned explicitly: the stream must not depend on the numpy
    # default changing.
    return np.random.Generator(np.random.PCG64(seed))


def white_noise(length: int, seed: int) -> np.ndarray:
    length = require_int(length, "length")
    if length < 0:
        raise ConfigError(f"length must be >= 0, got {length}")
    return _rng(seed).standard_normal(length)


#: Lags from which _fgn_gamma sums its series in 1/k^2, and the number of
#: terms it sums; the first omitted term is below 64^-24 of the first.
SERIES_FROM_LAG = 64
SERIES_TERMS = 12


def _fgn_gamma(h: float, lags: np.ndarray) -> np.ndarray:
    """fgn_autocovariance(h, k) for each k >= 0 of an integer array.

    The three powers of size k^2h in the textbook form cancel to far
    worse than eps * |gamma(k)| near h = 1. For 2 <= k < SERIES_FROM_LAG
    the second difference is factored as
    0.5 * k^2h * [expm1(2h log1p(1/k)) + expm1(2h log1p(-1/k))], whose
    error stays near k * eps * |gamma(k)|. From SERIES_FROM_LAG on, the
    bracket's binomial series leaves k^2h * sum_j C(2h, 2j) k^-2j,
    summed from its smallest term, with an error near eps * |gamma(k)|.
    gamma(0) and gamma(1) are taken exactly.
    """
    e = 2.0 * h
    k = np.maximum(lags, 2).astype(np.float64)
    near = lags < SERIES_FROM_LAG
    gamma = np.empty(k.shape)
    kn, kf = k[near], k[~near]
    gamma[near] = 0.5 * kn ** e * (np.expm1(e * np.log1p(1.0 / kn))
                                   + np.expm1(e * np.log1p(-1.0 / kn)))
    coefficients = [e * (e - 1.0) / 2.0]  # C(2h, 2j) for j = 1, 2, ...
    for j in range(1, SERIES_TERMS):
        coefficients.append(coefficients[-1] * (e - 2 * j) * (e - 2 * j - 1)
                            / ((2 * j + 1) * (2 * j + 2)))
    u = 1.0 / (kf * kf)
    total = np.zeros(kf.shape)
    for c in reversed(coefficients):
        total = (total + c) * u
    gamma[~near] = kf ** e * total
    gamma[lags == 0] = 1.0
    gamma[lags == 1] = 0.5 * (2.0 ** e - 2.0)
    return gamma


def _circulant_sqrt_eigs(h: float, n: int) -> np.ndarray:
    """Square roots of the eigenvalues of the size-2n circulant whose first
    row embeds the fGn autocovariance at lags 0 .. n."""
    m = 2 * n
    gamma = _fgn_gamma(h, np.arange(n + 1))
    row = np.empty(m)
    row[: n + 1] = gamma
    row[n + 1:] = gamma[1:n][::-1]
    eigs = np.fft.fft(row).real
    if eigs.min() < -1e-8:
        raise FactorizationFailureError(
            f"circulant embedding (h={h}, n={n}) has eigenvalue "
            f"{eigs.min():.3e}; the exact fGn embedding is non-negative "
            "definite, so this is a numerical limit of rounding near h = 1"
        )
    return np.sqrt(np.clip(eigs, 0.0, None))


def fgn(length: int, h: float, seed: int) -> np.ndarray:
    """Exact stationary fGn with autocovariance fgn_autocovariance(h, .)."""
    h = _check_h(h)
    length = require_int(length, "length")
    if length < 1:
        raise ConfigError(f"length must be >= 1, got {length}")
    rng = _rng(seed)
    if h == 0.5:
        # Covariance is exactly the identity.
        return rng.standard_normal(length)
    m = 2 * length
    sqrt_eigs = _circulant_sqrt_eigs(h, length)
    z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    coeff = np.fft.fft(z * sqrt_eigs)
    return coeff.real[:length] / np.sqrt(m)


def fbm(length: int, h: float, seed: int) -> np.ndarray:
    """Fractional Brownian motion: X(0) = 0, increments are fGn."""
    length = require_int(length, "length")
    if length < 1:
        raise ConfigError(f"length must be >= 1, got {length}")
    if length == 1:  # no increment to draw; h and seed are checked as fgn does
        _check_h(h)
        _rng(seed)
        return np.zeros(1)
    path = np.empty(length)
    path[0] = 0.0
    np.cumsum(fgn(length - 1, h, seed), out=path[1:])
    return path


def synthetic_calendar(length: int) -> tuple[dt.date, ...]:
    """The dates of a synthetic series: one a day from SYNTHETIC_EPOCH."""
    start = SYNTHETIC_EPOCH.toordinal()
    return tuple(map(dt.date.fromordinal, range(start, start + length)))


def _check_calendar_length(length: int) -> None:
    length = require_int(length, "length")
    if length < 2:
        raise ConfigError(f"length must be >= 2, got {length}")
    if length > MAX_CALENDAR_LENGTH:
        raise LengthTooLargeError(
            f"length must be <= {MAX_CALENDAR_LENGTH} (one date per day "
            f"from {SYNTHETIC_EPOCH} to {dt.date.max}), got {length}"
        )


def random_walk_prices(length: int, seed: int, drift: float = 0.0,
                       volatility: float = 1.0) -> PriceSeries:
    """Geometric random walk from WALK_START:
    p_t = p_0 * exp(sum(drift + vol * z_i))."""
    _check_calendar_length(length)
    drift = require_float(drift, "drift")
    volatility = require_float(volatility, "volatility")
    z = white_noise(length - 1, seed)
    log_path = np.empty(length)
    with np.errstate(all="ignore"):
        log_path[0] = np.log(WALK_START)
        np.cumsum(drift + volatility * z, out=log_path[1:])
        log_path[1:] += np.log(WALK_START)
        closes = np.exp(log_path)
    if not np.all(np.isfinite(closes) & (closes > 0.0)):
        raise ConfigError(
            f"drift {drift}, volatility {volatility} and start {WALK_START} "
            "do not give a finite positive price path"
        )
    return PriceSeries(dates=synthetic_calendar(length), closes=closes)


def generate(spec: GeneratorSpec):
    """Dispatch on spec.kind; returns an array or a PriceSeries.

    h is read by fgn and fbm only, drift and volatility by prices only;
    a spec must leave a field its kind does not read at its default.
    """
    require_instance(spec, GeneratorSpec, "generator spec")
    kind = require_instance(spec.kind, GeneratorKind, "kind", UnknownKindError)
    _check_calendar_length(spec.length)
    _rng(spec.seed)  # a negative seed fails here, ahead of the checks below
    drift = require_float(spec.drift, "drift")
    volatility = require_float(spec.volatility, "volatility")
    if not (np.isfinite(drift) and np.isfinite(volatility)):
        raise ConfigError("drift and volatility must be finite")
    if spec.h is not None and kind in (GeneratorKind.WHITE_NOISE,
                                       GeneratorKind.RANDOM_WALK_PRICES):
        raise ConfigError(f"kind {kind.value} does not read h; leave it at "
                          "None")
    defaults = (GeneratorSpec.drift, GeneratorSpec.volatility)
    if ((drift, volatility) != defaults
            and kind is not GeneratorKind.RANDOM_WALK_PRICES):
        raise ConfigError(f"kind {kind.value} does not read drift or "
                          f"volatility; got {drift!r} and {volatility!r}, "
                          f"leave them at {defaults[0]!r} and {defaults[1]!r}")
    if kind is GeneratorKind.WHITE_NOISE:
        return white_noise(spec.length, spec.seed)
    if kind is GeneratorKind.FGN:
        return fgn(spec.length, _require_h(spec), spec.seed)
    if kind is GeneratorKind.FBM:
        return fbm(spec.length, _require_h(spec), spec.seed)
    return random_walk_prices(spec.length, spec.seed, drift=drift,
                              volatility=volatility)


def _require_h(spec: GeneratorSpec) -> float:
    if spec.h is None:
        raise HOutOfRangeError(f"{spec.kind.value} requires an h parameter")
    return spec.h
