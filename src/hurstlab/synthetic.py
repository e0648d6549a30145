"""Seeded ground-truth generators: white noise, fGn, fBm, random-walk prices.

Fractional Gaussian noise is generated exactly. At desk scale the
Cholesky factor of the symmetric positive-definite Toeplitz covariance
is built by the Schur recursion on its generator, the autocovariance
vector alone: O(n^2) time, no dense covariance is formed, and the factor
is cached per (h, n) so repeated seeds cost one matrix-vector product.
Above DENSE_FGN_MAX the circulant embedding of the same covariance is
factored by FFT instead (Davies-Harte construction, also exact in
distribution; the embedding of the fGn autocovariance is positive
semidefinite for every h in (0, 1)). Both paths draw from a seeded PCG64
stream, so identical specs yield bit-identical output.
"""
from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    ConfigError,
    FactorizationFailureError,
    HOutOfRangeError,
    LengthTooLargeError,
)
from .series import PriceSeries

#: Hard bound for exact fGn/fBm generation.
MAX_EXACT_LENGTH = 2 ** 16

#: Largest n for which the Schur-factored route is used; beyond this the
#: circulant-embedding route takes over (the cached triangular factor
#: needs O(n^2) memory and each draw an O(n^2) product).
DENSE_FGN_MAX = 4096

#: Synthetic calendars start here (a Monday), one observation per day.
SYNTHETIC_EPOCH = dt.date(2000, 1, 3)

#: Longest synthetic calendar: its last date is dt.date.max.
MAX_CALENDAR_LENGTH = (dt.date.max - SYNTHETIC_EPOCH).days + 1

_chol_cache: dict[tuple[float, int], np.ndarray] = {}
_eig_cache: dict[tuple[float, int], np.ndarray] = {}
_CACHE_LIMIT = 8


class GeneratorKind(Enum):
    WHITE_NOISE = "white-noise"
    FGN = "fgn"
    FBM = "fbm"
    RANDOM_WALK_PRICES = "prices"


@dataclass(frozen=True)
class GeneratorSpec:
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
    if not 0.0 < h < 1.0:
        raise HOutOfRangeError(f"h must be in (0, 1), got {h}")
    k = abs(k)
    e = 2.0 * h
    return 0.5 * (abs(k + 1) ** e - 2.0 * abs(k) ** e + abs(k - 1) ** e)


def _rng(seed: int) -> np.random.Generator:
    # PCG64 pinned explicitly: the stream must not depend on the numpy
    # default changing.
    return np.random.Generator(np.random.PCG64(seed))


def white_noise(length: int, seed: int) -> np.ndarray:
    return _rng(seed).standard_normal(length)


def _evict(cache: dict) -> None:
    while len(cache) > _CACHE_LIMIT:
        cache.pop(next(iter(cache)))


def _fgn_gamma(h: float, n: int) -> np.ndarray:
    """fgn_autocovariance(h, k) for k = 0 .. n-1, vectorised."""
    lags = np.arange(n)
    e = 2.0 * h
    return 0.5 * (np.abs(lags + 1) ** e - 2.0 * np.abs(lags) ** e
                  + np.abs(lags - 1) ** e)


def _toeplitz_cholesky(gamma: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of the Toeplitz matrix with first column gamma.

    Schur (Bareiss) recursion on the displacement generator (a, b): row k
    of the upper factor is a; then a is shifted one place and (a, b) is
    hyperbolically rotated by rho = b[0] / a[0], which zeroes b[0].
    |rho| < 1 at every step exactly when the matrix is positive definite.
    Should rounding drive a[0] to zero (near h = 1), the division stays
    silent and the non-finite rho fails the same check.
    """
    n = gamma.size
    upper = np.zeros((n, n))
    a = gamma / np.sqrt(gamma[0])
    b = a.copy()
    b[0] = 0.0
    upper[0] = a
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(1, n):
            a = a[:-1]
            b = b[1:]
            rho = b[0] / a[0]
            if not abs(rho) < 1.0:
                raise FactorizationFailureError(
                    f"Toeplitz covariance (n={n}) failed Cholesky: Schur "
                    f"step {k} has reflection coefficient {rho}; the exact "
                    "fGn covariance is positive definite, so this is a "
                    "numerical limit"
                )
            s = 1.0 / np.sqrt(1.0 - rho * rho)
            a, b = (a - rho * b) * s, (b - rho * a) * s
            upper[k, k:] = a
    return upper.T


def _cholesky_factor(h: float, n: int) -> np.ndarray:
    key = (h, n)
    factor = _chol_cache.get(key)
    if factor is None:
        factor = _toeplitz_cholesky(_fgn_gamma(h, n))
        _chol_cache[key] = factor
        _evict(_chol_cache)
    return factor


def _circulant_sqrt_eigs(h: float, n: int) -> np.ndarray:
    key = (h, n)
    sqrt_eigs = _eig_cache.get(key)
    if sqrt_eigs is None:
        m = 2 * n
        gamma = _fgn_gamma(h, n + 1)
        row = np.empty(m)
        row[: n + 1] = gamma
        row[n + 1:] = gamma[1:n][::-1]
        eigs = np.fft.fft(row).real
        if eigs.min() < -1e-8:
            raise FactorizationFailureError(
                f"circulant embedding (h={h}, n={n}) has eigenvalue "
                f"{eigs.min():.3e}; the fGn embedding is provably PSD, so "
                "this is a numerical bug"
            )
        sqrt_eigs = np.sqrt(np.clip(eigs, 0.0, None))
        _eig_cache[key] = sqrt_eigs
        _evict(_eig_cache)
    return sqrt_eigs


def fgn(length: int, h: float, seed: int) -> np.ndarray:
    """Exact stationary fGn with autocovariance fgn_autocovariance(h, .)."""
    if not 0.0 < h < 1.0:
        raise HOutOfRangeError(f"h must be in (0, 1), got {h}")
    if length > MAX_EXACT_LENGTH:
        raise LengthTooLargeError(
            f"exact generation bounded at {MAX_EXACT_LENGTH}, got {length}"
        )
    rng = _rng(seed)
    if h == 0.5:
        # Covariance is exactly the identity.
        return rng.standard_normal(length)
    if length <= DENSE_FGN_MAX:
        factor = _cholesky_factor(h, length)
        return factor @ rng.standard_normal(length)
    m = 2 * length
    sqrt_eigs = _circulant_sqrt_eigs(h, length)
    z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    coeff = np.fft.fft(z * sqrt_eigs)
    return coeff.real[:length] / np.sqrt(m)


def fbm(length: int, h: float, seed: int) -> np.ndarray:
    """Fractional Brownian motion: X(0) = 0, increments are fGn."""
    if length < 1:
        raise ValueError("length must be >= 1")
    steps = fgn(length - 1, h, seed) if length > 1 else np.empty(0)
    path = np.empty(length)
    path[0] = 0.0
    np.cumsum(steps, out=path[1:])
    return path


def random_walk_prices(length: int, seed: int, drift: float = 0.0,
                       volatility: float = 1.0, start: float = 100.0,
                       symbol: str = "SYNTH") -> PriceSeries:
    """Geometric random walk: p_t = p_0 * exp(sum(drift + vol * z_i))."""
    z = white_noise(length - 1, seed)
    log_path = np.empty(length)
    with np.errstate(all="ignore"):
        log_path[0] = np.log(start)
        np.cumsum(drift + volatility * z, out=log_path[1:])
        log_path[1:] += np.log(start)
        closes = np.exp(log_path)
    if not np.all(np.isfinite(closes) & (closes > 0.0)):
        raise ConfigError(
            f"drift {drift}, volatility {volatility} and start {start} do "
            "not give a finite positive price path"
        )
    dates = tuple(SYNTHETIC_EPOCH + dt.timedelta(days=i) for i in range(length))
    return PriceSeries(symbol=symbol, dates=dates, closes=closes)


def generate(spec: GeneratorSpec):
    """Dispatch on spec.kind; returns an array or a PriceSeries."""
    if spec.length < 2:
        raise ConfigError(f"length must be >= 2, got {spec.length}")
    if spec.length > MAX_CALENDAR_LENGTH:
        raise LengthTooLargeError(
            f"length must be <= {MAX_CALENDAR_LENGTH} (one date per day "
            f"from {SYNTHETIC_EPOCH} to {dt.date.max}), got {spec.length}"
        )
    if spec.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {spec.seed}")
    if not (np.isfinite(spec.drift) and np.isfinite(spec.volatility)):
        raise ConfigError("drift and volatility must be finite")
    if spec.kind is GeneratorKind.WHITE_NOISE:
        return white_noise(spec.length, spec.seed)
    if spec.kind is GeneratorKind.FGN:
        return fgn(spec.length, _require_h(spec), spec.seed)
    if spec.kind is GeneratorKind.FBM:
        return fbm(spec.length, _require_h(spec), spec.seed)
    if spec.kind is GeneratorKind.RANDOM_WALK_PRICES:
        return random_walk_prices(spec.length, spec.seed,
                                  drift=spec.drift,
                                  volatility=spec.volatility)
    raise ValueError(f"unknown kind {spec.kind}")  # pragma: no cover


def _require_h(spec: GeneratorSpec) -> float:
    if spec.h is None:
        raise HOutOfRangeError(f"{spec.kind.value} requires an h parameter")
    return spec.h
