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

#: Synthetic calendars start here (a Monday), one observation per day.
SYNTHETIC_EPOCH = dt.date(2000, 1, 3)

#: Longest synthetic calendar: its last date is dt.date.max.
MAX_CALENDAR_LENGTH = (dt.date.max - SYNTHETIC_EPOCH).days + 1


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
    return float(_fgn_gamma(h, np.array([abs(k)]))[0])


def _rng(seed: int) -> np.random.Generator:
    # PCG64 pinned explicitly: the stream must not depend on the numpy
    # default changing.
    return np.random.Generator(np.random.PCG64(seed))


def white_noise(length: int, seed: int) -> np.ndarray:
    return _rng(seed).standard_normal(length)


def _fgn_gamma(h: float, lags: np.ndarray) -> np.ndarray:
    """fgn_autocovariance(h, k) for each k >= 0 of an integer array."""
    e = 2.0 * h
    return 0.5 * (np.abs(lags + 1) ** e - 2.0 * np.abs(lags) ** e
                  + np.abs(lags - 1) ** e)


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
    if not 0.0 < h < 1.0:
        raise HOutOfRangeError(f"h must be in (0, 1), got {h}")
    if length < 1:
        raise ConfigError(f"length must be >= 1, got {length}")
    if length > MAX_EXACT_LENGTH:
        raise LengthTooLargeError(
            f"exact generation bounded at {MAX_EXACT_LENGTH}, got {length}"
        )
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
    if length < 1:
        raise ConfigError(f"length must be >= 1, got {length}")
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
