"""Rescaled-range (R/S) Hurst estimation and its derived quantities.

The procedure: cut the series into consecutive length-n segments, build
each segment's mean-centered cumulative-deviation walk, take the walk's
range over the segment's standard deviation, average those ratios per
scale, and regress log (R/S)_n on log n. The slope is the Hurst exponent
h; the lag-one autocorrelation implied by h is 2^(2h-1) - 1 and the
fractal dimension is 1/h.

A ratio depends only on its own segment, so the curves of the windows
of one series (``rs_curve_rows(x, window, lag, ...)``) read one table
per scale, indexed by segment start, in which each distinct segment is
evaluated once. ``rs_fits`` also fits them, and a standalone estimate is
row 0 of the sweep's ``rs_fits`` call, made on the series alone.
"""
from __future__ import annotations

from enum import Enum
from typing import Sequence

import numpy as np

from . import _kernels
from ._record import Record
from .errors import (
    AllSegmentsDegenerateError,
    InvalidPlanError,
    NonPositiveHError,
    TooShortError,
    require_instance,
    require_int,
    require_ints,
)
from .regression import (
    EstimatorKind,
    ScalingCurve,
    fit_rows,
    unfittable_rows,
)
from .series import finite_values

#: Smallest segment the estimator will accept by default. R/S on tiny
#: segments is dominated by discreteness noise.
DEFAULT_MIN_SEGMENT = 8

#: The fixed fragmentation of a 250-return window into 2..15 parts:
#: segment lengths for 2, 3, 4, 5, 6, 7, 8, 10, 12 and 15 parts.
PRESET_250_SEGMENTS = (16, 20, 25, 31, 35, 41, 50, 62, 83, 125)


class PartitionPolicy(Enum):
    AUTO = "auto"
    DIVISORS_ONLY = "divisors"
    PRESET_250 = "preset250"


class StdMode(Enum):
    POPULATION = "population"  # sqrt(sum((x-m)^2) / n)
    SAMPLE = "sample"          # sqrt(sum((x-m)^2) / (n-1))


class Persistence(Enum):
    ANTI_PERSISTENT = "anti-persistent"
    RANDOM = "random"
    PERSISTENT = "persistent"


class PartitionPlan(Record):
    """Segment lengths used to build the R/S scaling curve: at least 3
    strictly increasing integers from 2 to the total length."""

    total_length: int
    segment_lengths: tuple[int, ...]

    def __post_init__(self):
        total = require_int(self.total_length, "length", InvalidPlanError)
        lengths = require_ints(self.segment_lengths, "segment length",
                               InvalidPlanError)
        object.__setattr__(self, "total_length", total)
        object.__setattr__(self, "segment_lengths", lengths)
        if len(lengths) < 3:
            raise InvalidPlanError(
                f"plan yields only {len(lengths)} scales; need at least 3"
            )
        if any(n2 <= n1 for n1, n2 in zip(lengths, lengths[1:])):
            raise InvalidPlanError("segment lengths must be strictly increasing")
        if lengths[0] < 2 or lengths[-1] > total:
            raise InvalidPlanError(
                f"segment lengths {lengths[0]}..{lengths[-1]} out of bounds "
                f"for length {total}"
            )


class RSSegmentStats(Record):
    """Per-segment quantities of the rescaled-range recipe.

    ``ratio`` is None exactly when the segment is constant, or its
    deviations round to a std_dev of 0.
    """

    mean: float
    std_dev: float
    range: float
    ratio: float | None


class HurstEstimate(Record):
    """A fitted Hurst exponent with its derived quantities.

    ``skipped_segments`` lists (scale, dropped_count) for scales where
    constant segments were excluded from the average. ``flags`` carries
    diagnostics such as "h_out_of_range" or "flat_curve"; h itself is
    never clamped.
    """

    h: float
    r_squared: float
    curve: ScalingCurve
    skipped_segments: tuple[tuple[int, int], ...] = ()
    flags: tuple[str, ...] = ()

    @property
    def persistence(self) -> Persistence:
        return classify_persistence(self.h)

    @property
    def autocorrelation_c(self) -> float:
        return autocorrelation_from_h(self.h)

    @property
    def fractal_dimension(self) -> float | None:
        """1/h, or None when h <= 0, where it is undefined."""
        return fractal_dimension(self.h) if self.h > 0.0 else None

    @property
    def estimator(self) -> EstimatorKind:
        return self.curve.kind


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
    x = finite_values(segment)
    if x.size < 2:
        raise TooShortError(f"segment needs at least 2 values, got {x.size}")
    ddof = _ddof(std_mode)
    m, std, rng, varies = (v[0].item()
                           for v in _kernels.rs_segments(x, x.size, ddof))
    ratio = rng / std if varies and std > 0.0 else None
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
    x = finite_values(series)
    if n < 2:
        raise InvalidPlanError(f"segment length must be >= 2, got {n}")
    if x.size // n < 1:
        raise InvalidPlanError(
            f"series of length {x.size} has no segment of length {n}")
    stats, defined = rs_curve_rows(x, x.size, 1, (n,), std_mode)
    if error := rs_window_error(x.size, (n,), defined[0].tolist()):
        raise error
    return stats[0, 0].item(), x.size // n - defined[0, 0].item()


def rs_curve_rows(x: np.ndarray, window: int, lag: int,
                  segment_lengths: Sequence[int],
                  std_mode: StdMode = StdMode.POPULATION
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(R/S)_n at each n of every window x[i*lag : i*lag + window] of a
    1-D x, and the count of its non-constant segments.

    Both have shape (windows, len(segment_lengths)); a statistic is NaN
    where every segment at its scale is constant. Each scale reads one
    segment table for all windows.
    """
    ddof = _ddof(std_mode)
    shape = ((x.size - window) // lag + 1, len(segment_lengths))
    totals, defined = np.empty(shape), np.empty(shape, dtype=np.intp)
    for k, n in enumerate(segment_lengths):
        totals[:, k], defined[:, k], _ = _kernels.rs_window_sums(
            x, window, lag, n, ddof)
    stats = np.divide(totals, defined, out=np.full(shape, np.nan),
                      where=defined > 0)
    return stats, defined


def _ddof(std_mode: StdMode) -> int:
    """The degrees of freedom the mode's standard deviation gives up."""
    require_instance(std_mode, StdMode, "std_mode")
    return 0 if std_mode is StdMode.POPULATION else 1


def rs_window_error(window: int, segment_lengths: Sequence[int],
                    defined: Sequence[int]) -> AllSegmentsDegenerateError | None:
    """The error of the first scale whose segments are all constant, from
    a window's counts in rs_curve_rows, or None; an estimate raises it
    ahead of its curve's own (regression.unfittable_rows)."""
    for n, d in zip(segment_lengths, defined):
        if d == 0:
            return AllSegmentsDegenerateError(
                f"all {window // n} segments of length {n} are constant")
    return None


def rs_fits(x: np.ndarray, window: int, lag: int, plan: PartitionPlan,
            std_mode: StdMode = StdMode.POPULATION) -> tuple:
    """(curves, fit, errors, defined) of every window x[i*lag : i*lag +
    window]: rs_curve_rows', fit_rows' and, by window, the error of each
    that cannot be fitted, rs_window_error's, else its curve's own."""
    stats, defined = rs_curve_rows(x, window, lag, plan.segment_lengths,
                                   std_mode)
    fit, errors = fit_rows(plan.segment_lengths, stats), unfittable_rows(stats)
    unfit = list(errors)
    for i, counts in zip(unfit, defined[unfit].tolist()):
        errors[i] = rs_window_error(window, plan.segment_lengths,
                                    counts) or errors[i]
    return stats, fit, errors, defined


def build_partition_plan(total_length: int,
                         policy: PartitionPolicy,
                         min_segment_length: int = DEFAULT_MIN_SEGMENT
                         ) -> PartitionPlan:
    """Choose the segment lengths for a series of the given length.

    DIVISORS_ONLY takes every divisor n of the length with
    min_segment_length <= n <= length/2. PRESET_250 is the fixed
    ten-value fragmentation and is only valid for 250 returns (where
    several lengths deliberately do not divide 250; the trailing
    remainder is discarded at estimation time). AUTO is PRESET_250 at
    exactly 250 values, else DIVISORS_ONLY, else (below 3 divisors, at a
    prime say) the doubling lengths min_segment_length * 2^k <= length/2.
    A caller's own lengths are a hand-built PartitionPlan, which checks
    them.
    """
    total_length = require_int(total_length, "length", InvalidPlanError)
    min_segment_length = require_int(min_segment_length, "min_segment_length",
                                     InvalidPlanError)
    require_instance(policy, PartitionPolicy, "policy", InvalidPlanError)
    if min_segment_length < 2:
        raise InvalidPlanError("min_segment_length must be >= 2")
    if total_length < 2 * min_segment_length:
        raise InvalidPlanError(
            f"length {total_length} too short for segments of {min_segment_length}"
        )
    auto = policy is PartitionPolicy.AUTO
    if policy is PartitionPolicy.PRESET_250 or (auto and total_length == 250):
        if total_length != 250:
            raise InvalidPlanError(
                f"preset250 plan requires exactly 250 values, got {total_length}"
            )
        lengths = PRESET_250_SEGMENTS
    else:
        lengths = tuple(
            n for n in range(min_segment_length, total_length // 2 + 1)
            if total_length % n == 0
        )
        if auto and len(lengths) < 3:
            lengths = tuple(
                min_segment_length * 2 ** k
                for k in range(total_length.bit_length())
                if min_segment_length * 2 ** k <= total_length // 2)
    plan = PartitionPlan(total_length, lengths)
    if lengths[0] < min_segment_length:
        raise InvalidPlanError(
            f"segment lengths {lengths[0]}..{lengths[-1]} out of bounds "
            f"for length {total_length} (min {min_segment_length})"
        )
    return plan


def estimate_from_fits(scales: tuple[int, ...], kind: EstimatorKind,
                       stats: np.ndarray, fit: tuple, errors: dict,
                       skipped_segments: tuple = ()) -> HurstEstimate:
    """The estimate of row 0 of rs_fits or dfa_fits, with its derived
    values and flags, or row 0's error."""
    if 0 in errors:
        raise errors[0]
    h, _, r_squared, flat = (v[0].item() for v in fit)
    flags = tuple(flag for flag, raised in (
        ("flat_curve", flat), ("h_out_of_range", not 0.0 <= h <= 1.0)) if raised)
    curve = ScalingCurve(scales, tuple(stats[0].tolist()), kind)
    return HurstEstimate(h, r_squared, curve, skipped_segments, flags)


def estimate_hurst_rs(series: Sequence[float], plan: PartitionPlan,
                      std_mode: StdMode = StdMode.POPULATION) -> HurstEstimate:
    """Rescaled-range estimate over a plan: row 0 of rs_fits on the series."""
    require_instance(plan, PartitionPlan, "plan", InvalidPlanError)
    x = finite_values(series)
    if x.size != plan.total_length:
        raise InvalidPlanError(
            f"plan built for length {plan.total_length}, series has {x.size}"
        )
    *fits, defined = rs_fits(x, x.size, 1, plan, std_mode)
    skipped = tuple((n, drop) for n, d in zip(plan.segment_lengths,
                                              defined[0].tolist())
                    if (drop := x.size // n - d))
    return estimate_from_fits(plan.segment_lengths,
                              EstimatorKind.RESCALED_RANGE, *fits, skipped)
