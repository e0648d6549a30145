"""Rescaled-range (R/S) Hurst estimation and its derived quantities.

The procedure: cut the series into consecutive length-n segments, build
each segment's mean-centered cumulative-deviation walk, take the walk's
range over the segment's standard deviation, average those ratios per
scale, and regress log (R/S)_n on log n. The slope is the Hurst exponent
h; the lag-one autocorrelation implied by h is 2^(2h-1) - 1 and the
fractal dimension is 1/h.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from . import _kernels
from .errors import (
    AllSegmentsDegenerateError,
    InvalidPlanError,
    NonPositiveHError,
)
from .regression import EstimatorKind, PowerLawFit, ScalingCurve, fit_loglog

#: Smallest segment the estimator will accept by default. R/S on tiny
#: segments is dominated by discreteness noise.
DEFAULT_MIN_SEGMENT = 8

#: The fixed fragmentation of a 250-return window into 2..15 parts:
#: segment lengths for 2, 3, 4, 5, 6, 7, 8, 10, 12 and 15 parts.
PRESET_250_SEGMENTS = (16, 20, 25, 31, 35, 41, 50, 62, 83, 125)


class PartitionPolicy(Enum):
    DIVISORS_ONLY = "divisors"
    PRESET_250 = "preset250"
    EXPLICIT = "explicit"


class StdMode(Enum):
    POPULATION = "population"  # sqrt(sum((x-m)^2) / n)
    SAMPLE = "sample"          # sqrt(sum((x-m)^2) / (n-1))


class Persistence(Enum):
    ANTI_PERSISTENT = "anti-persistent"
    RANDOM = "random"
    PERSISTENT = "persistent"


@dataclass(frozen=True)
class PartitionPlan:
    """Segment lengths used to build the R/S scaling curve."""

    total_length: int
    segment_lengths: tuple[int, ...]
    policy: PartitionPolicy


@dataclass(frozen=True)
class RSSegmentStats:
    """Per-segment quantities of the rescaled-range recipe.

    ``ratio`` is None exactly when the segment is constant (std_dev 0).
    """

    mean: float
    std_dev: float
    range: float
    ratio: float | None


@dataclass(frozen=True)
class HurstEstimate:
    """A fitted Hurst exponent with its derived quantities.

    ``fractal_dimension`` is None when h <= 0 (1/h undefined).
    ``skipped_segments`` lists (scale, dropped_count) for scales where
    constant segments were excluded from the average. ``flags`` carries
    diagnostics such as "h_out_of_range" or "flat_curve"; h itself is
    never clamped.
    """

    h: float
    r_squared: float
    autocorrelation_c: float
    fractal_dimension: float | None
    estimator: EstimatorKind
    curve: ScalingCurve
    skipped_segments: tuple[tuple[int, int], ...] = ()
    flags: tuple[str, ...] = ()

    @property
    def persistence(self) -> Persistence:
        return classify_persistence(self.h)


def classify_persistence(h: float) -> Persistence:
    if h < 0.5:
        return Persistence.ANTI_PERSISTENT
    if h > 0.5:
        return Persistence.PERSISTENT
    return Persistence.RANDOM


def autocorrelation_from_h(h: float) -> float:
    """Autocorrelation implied by the Hurst exponent: 2^(2h-1) - 1."""
    return 2.0 ** (2.0 * h - 1.0) - 1.0


def fractal_dimension(h: float) -> float:
    """Fractal dimension 1/h; between 1 and 2 for persistent series."""
    if h <= 0.0:
        raise NonPositiveHError(f"fractal dimension undefined for h={h}")
    return 1.0 / h


def segment_stats(segment: Sequence[float],
                  std_mode: StdMode = StdMode.POPULATION) -> RSSegmentStats:
    """Mean, standard deviation, cumulative-deviation range and R/S ratio.

    The walk X_k sums the first k deviations from the segment mean, so
    X_n is 0 and the range is always non-negative. The values are the
    kernel's, so ratio is rs_at_scale(segment, len(segment)) exactly.
    """
    x = np.asarray(segment, dtype=np.float64)
    if x.size < 2:
        raise ValueError(f"segment needs at least 2 values, got {x.size}")
    ddof = 0 if std_mode is StdMode.POPULATION else 1
    m, std, rng = (float(v[0]) for v in _kernels.rs_segments(x, x.size, ddof))
    ratio = rng / std if std > 0.0 else None
    return RSSegmentStats(mean=m, std_dev=std, range=rng, ratio=ratio)


def rs_at_scale(series: Sequence[float], n: int,
                std_mode: StdMode = StdMode.POPULATION) -> float:
    """Average R/S ratio over the floor(len/n) leading length-n segments.

    Segments start at index 0 and the trailing remainder is discarded;
    constant segments are excluded from the average. Raises when every
    segment is constant.
    """
    return rs_at_scale_with_diagnostics(series, n, std_mode)[0]


def rs_at_scale_with_diagnostics(
    series: Sequence[float], n: int,
    std_mode: StdMode = StdMode.POPULATION,
) -> tuple[float, int]:
    """rs_at_scale plus the count of excluded constant segments."""
    x = np.asarray(series, dtype=np.float64)
    if n < 2:
        raise ValueError(f"segment length must be >= 2, got {n}")
    if x.size // n < 1:
        raise ValueError(f"series of length {x.size} has no segment of length {n}")
    stats, dropped = _rs_window(x, (n,), std_mode)
    return stats[0], dropped[0]


def rs_curve_rows(rows: np.ndarray, segment_lengths: Sequence[int],
                  std_mode: StdMode = StdMode.POPULATION,
                  ) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """(R/S)_n of every window of ``rows`` (shape (..., length)) at each n.

    Returns (statistics, defined_counts) of shape (..., len(segment_lengths))
    and floor(length/n) per scale. A statistic is NaN where every segment at
    its scale is constant. A single window is the batch of one.
    """
    ddof = 0 if std_mode is StdMode.POPULATION else 1
    sums = [_kernels.rs_segment_sums(rows, n, ddof) for n in segment_lengths]
    totals = np.stack([total for total, _, _ in sums], axis=-1)
    defined = np.stack([count for _, count, _ in sums], axis=-1)
    stats = np.divide(totals, defined, out=np.full(totals.shape, np.nan),
                      where=defined > 0)
    return stats, defined, tuple(v for _, _, v in sums)


def _rs_window(x: np.ndarray, segment_lengths: Sequence[int],
               std_mode: StdMode) -> tuple[list[float], list[int]]:
    """(R/S)_n and the dropped constant segments per scale of one window;
    raises at the first scale whose segments are all constant."""
    stats, defined, segments = rs_curve_rows(x, segment_lengths, std_mode)
    dropped = [v - count for v, count in zip(segments, defined.tolist())]
    for n, v, d in zip(segment_lengths, segments, dropped):
        if d == v:
            raise AllSegmentsDegenerateError(
                f"all {v} segments of length {n} are constant")
    return stats.tolist(), dropped


def build_partition_plan(total_length: int,
                         policy: PartitionPolicy,
                         min_segment_length: int = DEFAULT_MIN_SEGMENT,
                         explicit: Sequence[int] | None = None) -> PartitionPlan:
    """Choose the segment lengths for a series of the given length.

    DIVISORS_ONLY takes every divisor n of the length with
    min_segment_length <= n <= length/2. PRESET_250 is the fixed
    ten-value fragmentation and is only valid for 250 returns (where
    several lengths deliberately do not divide 250; the trailing
    remainder is discarded at estimation time). EXPLICIT validates a
    caller-supplied list.
    """
    if min_segment_length < 2:
        raise InvalidPlanError("min_segment_length must be >= 2")
    if total_length < 2 * min_segment_length:
        raise InvalidPlanError(
            f"length {total_length} too short for segments of {min_segment_length}"
        )
    if policy is PartitionPolicy.DIVISORS_ONLY:
        lengths = tuple(
            n for n in range(min_segment_length, total_length // 2 + 1)
            if total_length % n == 0
        )
    elif policy is PartitionPolicy.PRESET_250:
        if total_length != 250:
            raise InvalidPlanError(
                f"preset250 plan requires exactly 250 values, got {total_length}"
            )
        lengths = tuple(sorted(PRESET_250_SEGMENTS))
    elif policy is PartitionPolicy.EXPLICIT:
        if not explicit:
            raise InvalidPlanError("explicit policy needs a segment list")
        lengths = tuple(sorted(set(int(n) for n in explicit)))
    else:  # pragma: no cover - exhaustive enum
        raise InvalidPlanError(f"unknown policy {policy}")
    if len(lengths) < 3:
        raise InvalidPlanError(
            f"plan yields only {len(lengths)} scales; need at least 3"
        )
    if lengths[0] < min_segment_length or lengths[-1] > total_length:
        raise InvalidPlanError(
            f"segment lengths {lengths[0]}..{lengths[-1]} out of bounds "
            f"for length {total_length} (min {min_segment_length})"
        )
    return PartitionPlan(total_length=total_length,
                         segment_lengths=lengths, policy=policy)


def estimate_from_curve(curve: ScalingCurve, estimator: EstimatorKind,
                        fit: PowerLawFit | None = None,
                        skipped_segments: tuple[tuple[int, int], ...] = (),
                        ) -> HurstEstimate:
    """Wrap a fitted scaling curve into a HurstEstimate with derived values."""
    if fit is None:
        fit = fit_loglog(curve)
    h = fit.exponent
    flags = []
    if fit.flat:
        flags.append("flat_curve")
    if not 0.0 <= h <= 1.0:
        flags.append("h_out_of_range")
    return HurstEstimate(
        h=h,
        r_squared=fit.r_squared,
        autocorrelation_c=autocorrelation_from_h(h),
        fractal_dimension=(1.0 / h) if h > 0.0 else None,
        estimator=estimator,
        curve=curve,
        skipped_segments=skipped_segments,
        flags=tuple(flags),
    )


def estimate_hurst_rs(series: Sequence[float], plan: PartitionPlan,
                      std_mode: StdMode = StdMode.POPULATION) -> HurstEstimate:
    """Rescaled-range estimate over a plan: the rolling sweep's batch of one."""
    x = np.asarray(series, dtype=np.float64)
    if x.size != plan.total_length:
        raise InvalidPlanError(
            f"plan built for length {plan.total_length}, series has {x.size}"
        )
    stats, dropped = _rs_window(x, plan.segment_lengths, std_mode)
    curve = ScalingCurve(scales=plan.segment_lengths, statistics=tuple(stats),
                         kind=EstimatorKind.RESCALED_RANGE)
    skipped = tuple((n, d) for n, d in zip(plan.segment_lengths, dropped) if d)
    return estimate_from_curve(curve, EstimatorKind.RESCALED_RANGE,
                               skipped_segments=skipped)
