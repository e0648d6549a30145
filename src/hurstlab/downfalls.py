"""Peak-to-trough downfall episodes and the progressive kurtosis scan.

An episode opens at the running maximum once the close declines, bottoms
at the lowest close of the episode, and closes at the first bar whose
close recovers to the opening ceiling or to the highest close of the
trailing lookback window, whichever is lower. Episode depths, ordered
from smallest, are scanned for the subset whose excess kurtosis is
nearest zero; deeper episodes than that cutoff fall in the heavy-tailed
(leptokurtic) regime, the rest in the random (mesokurtic) regime.
"""
from __future__ import annotations

import datetime as dt
import math
from enum import Enum
from typing import Sequence

import numpy as np

from ._record import Record
from .errors import (
    ConfigError,
    EmptyScanError,
    NoDownfallsError,
    TooFewError,
    ZeroVarianceError,
    require_equal_lengths,
    require_float,
    require_instance,
    require_int,
)
from .series import PriceSeries, finite_values

#: Six calendar months of daily closes, in trading days.
DEFAULT_LOOKBACK_DAYS = 126

#: Episodes of every depth are kept.
DEFAULT_MIN_DEPTH = 0.0

_TINY = np.finfo(np.float64).tiny  # the smallest normal double


class Regime(Enum):
    MESOKURTIC = "mesokurtic"
    LEPTOKURTIC = "leptokurtic"


class Downfall(Record):
    """One peak-to-trough episode; recovery fields are None while open."""

    peak_date: dt.date
    trough_date: dt.date
    recovery_date: dt.date | None
    depth: float
    peak_index: int
    trough_index: int
    recovery_index: int | None

    @property
    def is_open(self) -> bool:
        return self.recovery_date is None

    @property
    def duration_days(self) -> int:
        return self.trough_index - self.peak_index


class KurtosisScan(Record):
    """Columns with an entry per scanned subset: how many of the smallest
    depths it holds, the largest of them, and its excess kurtosis."""

    upper_index: tuple[int, ...]
    upper_value: tuple[float, ...]
    excess_kurtosis: tuple[float, ...]
    skipped_subsets: tuple[int, ...] = ()  # zero-variance subset sizes

    def __post_init__(self):
        require_equal_lengths(self, "upper_index", "upper_value",
                              "excess_kurtosis")

    @property
    def entries(self) -> tuple[tuple[int, float, float], ...]:
        """(upper_index, upper_value, excess_kurtosis) of each entry."""
        return tuple(zip(self.upper_index, self.upper_value,
                         self.excess_kurtosis))


class CriticalLevel(Record):
    cutoff_depth: float
    cutoff_index: int
    kurtosis_at_cutoff: float


def _trailing_max(closes: np.ndarray, lookback: int) -> np.ndarray:
    """out[t] = max of the up-to-`lookback` closes strictly before t."""
    n = closes.size
    out = np.empty(n)
    out[0] = np.nan  # no prior bar
    head = min(lookback, n - 1)
    out[1: head + 1] = np.maximum.accumulate(closes[:head])
    if n - 1 > lookback:
        windows = np.lib.stride_tricks.sliding_window_view(closes[:-1], lookback)
        out[lookback + 1:] = windows.max(axis=1)[1:]
    return out


def extract_downfalls(prices: PriceSeries,
                      lookback_days: int = DEFAULT_LOOKBACK_DAYS,
                      min_depth: float = DEFAULT_MIN_DEPTH) -> list[Downfall]:
    """Scan the price series left to right for downfall episodes.

    Any decline from the running maximum opens an episode (min_depth
    filters the result list, not the scan). An episode still open at the
    series end is emitted with recovery fields None. Episodes never
    overlap; the recovery bar becomes the next peak candidate.
    """
    require_instance(prices, PriceSeries, "price series")
    lookback_days = require_int(lookback_days, "lookback_days")
    if lookback_days < 1:
        raise ConfigError("lookback_days must be >= 1")
    min_depth = require_float(min_depth, "min_depth")
    if not (math.isfinite(min_depth) and min_depth >= 0.0):
        raise ConfigError(f"min_depth must be finite and >= 0, got {min_depth}")
    closes = prices.closes
    dates = prices.dates
    n = closes.size
    trailing = _trailing_max(closes, lookback_days)
    log_close = np.log(closes)

    episodes: list[Downfall] = []

    def emit(peak: int, last: int, recovery: int | None) -> None:
        # Trough is the lowest close before the recovery bar; an open
        # episode scans through the final bar.
        lo = peak + 1
        hi = recovery if recovery is not None else last + 1
        trough = lo + int(np.argmin(closes[lo:hi]))
        depth = float(log_close[peak] - log_close[trough])
        if depth >= min_depth:
            recovery_date = dates[recovery] if recovery is not None else None
            episodes.append(Downfall(dates[peak], dates[trough], recovery_date,
                                     depth, peak, trough, recovery))

    peak = 0
    in_episode = False
    ceiling = 0.0
    for t in range(1, n):
        c = closes[t]
        if in_episode:
            if c >= min(ceiling, trailing[t]):
                emit(peak, t, t)
                in_episode = False
                peak = t
        elif c > closes[peak]:
            peak = t
        elif c < closes[peak]:
            in_episode = True
            ceiling = float(closes[peak])
    if in_episode:
        emit(peak, n - 1, None)
    return episodes


def rank_size_points(downfalls: Sequence[Downfall],
                     include_open: bool = False) -> list[tuple[float, float]]:
    """(ln rank, ln depth) with rank 1 for the deepest episode. A decline
    can vanish in log space (a close and the next lower double), so only
    positive depths are ranked."""
    depths = sorted((d for d in _depths(downfalls, include_open) if d > 0.0),
                    reverse=True)
    if not depths:
        raise NoDownfallsError("no episodes of positive depth to rank")
    return [(math.log(rank), math.log(depth))
            for rank, depth in enumerate(depths, start=1)]


def _central_moments(x: np.ndarray) -> tuple[float, float]:
    dev = x - x.mean()
    return float((dev * dev).mean()), float((dev ** 4).mean())


@np.errstate(all="ignore")
def excess_kurtosis(values: Sequence[float]) -> float:
    """Population (1/n moments) Fisher excess kurtosis; zero in
    expectation for normal data."""
    x = finite_values(values)
    n = x.size
    if n < 4:
        raise TooFewError(f"kurtosis needs at least 4 values, got {n}")
    # max == min detects constant samples robustly; the mean of identical
    # floats is not always exact, so m2 == 0 would miss them.
    if float(x.max()) == float(x.min()):
        raise ZeroVarianceError("kurtosis undefined for constant values")
    m2, m4 = _central_moments(x)
    if not (_TINY <= m2 * m2 < math.inf and m4 < math.inf):
        # The moments overflowed or underflowed. Kurtosis is scale-free, so
        # they are taken again with the largest magnitude scaled into
        # [0.5, 1) by an exact power of two; elsewhere the unscaled
        # arithmetic stands, since dev ** 4 need not commute with scaling.
        m2, m4 = _central_moments(np.ldexp(x, -np.frexp(np.abs(x).max())[1]))
    return m4 / (m2 * m2) - 3.0


def _depths(downfalls: Sequence[Downfall], include_open: bool) -> list[float]:
    try:
        episodes = [require_instance(d, Downfall, "downfall")
                    for d in downfalls]
    except TypeError:
        raise ConfigError(f"downfalls must be a sequence of Downfall, got "
                          f"{downfalls!r}") from None
    return [d.depth for d in episodes if include_open or not d.is_open]


def progressive_kurtosis(downfalls: Sequence[Downfall],
                         include_open: bool = False) -> KurtosisScan:
    """Excess kurtosis of the k smallest depths for every k from 4 up.

    Open episodes are excluded by default (their depth is not final).
    Zero-variance subsets are skipped and reported, not treated as zero.
    """
    depths = sorted(_depths(downfalls, include_open))
    if len(depths) < 5:
        raise TooFewError(
            f"progressive scan needs at least 5 episodes, got {len(depths)}"
        )
    index, kurtosis, skipped = [], [], []
    values = np.asarray(depths)
    for k in range(4, len(depths) + 1):
        try:
            kurtosis.append(excess_kurtosis(values[:k]))
            index.append(k)
        except ZeroVarianceError:
            skipped.append(k)
    upper = tuple(float(values[k - 1]) for k in index)
    return KurtosisScan(tuple(index), upper, tuple(kurtosis), tuple(skipped))


def critical_cutoff(scan: KurtosisScan) -> CriticalLevel:
    """The scan entry whose kurtosis is nearest zero; ties prefer the
    larger subset (fewer events claimed as self-organized)."""
    kurtosis = require_instance(scan, KurtosisScan, "scan").excess_kurtosis
    if not kurtosis:
        raise EmptyScanError("scan has no usable entries")
    # min keeps the first of equals it meets, so search from the end
    best = min(reversed(range(len(kurtosis))), key=lambda i: abs(kurtosis[i]))
    return CriticalLevel(scan.upper_value[best], scan.upper_index[best],
                         kurtosis[best])


def classify_episode(downfall: Downfall, critical: CriticalLevel) -> Regime:
    """Leptokurtic strictly above the cutoff; the boundary stays mesokurtic."""
    require_instance(downfall, Downfall, "downfall")
    require_instance(critical, CriticalLevel, "critical level")
    if downfall.depth > critical.cutoff_depth:
        return Regime.LEPTOKURTIC
    return Regime.MESOKURTIC
