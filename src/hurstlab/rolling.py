"""Sliding-window ("dynamic") Hurst estimation over a long return series.

Window i covers returns [i*lag, i*lag + window). The sweep builds the
R/S plan or DFA box schedule once and runs each scale's reduction and the
log-log fit once per chunk of windows stacked as rows; a standalone
estimate is the batch of one of the same code, so a trace entry equals
the standalone estimate on that slice bit for bit. A window fails where
its standalone estimate raises, and is kept as a gap noted with that
error rather than dropped or interpolated.
"""
from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dfa import (
    DfaConfig,
    FitTarget,
    default_box_sizes,
    dfa_curve_rows,
    dfa_fit_rows,
    estimate_hurst_dfa,
)
from .errors import (
    ComputationError,
    ConfigError,
    EmptyTraceError,
    InvalidPlanError,
    SeriesTooShortError,
    TraceTooShortError,
)
from .rescaled_range import (
    DEFAULT_MIN_SEGMENT,
    EstimatorKind,
    PartitionPlan,
    PartitionPolicy,
    StdMode,
    build_partition_plan,
    estimate_hurst_rs,
    rs_curve_rows,
)
from .regression import ols_rows
from .series import ReturnSeries, Transform, transform_returns

#: Windows per batched call: bounds the working set (0.5 MB per temporary
#: at window 250) whatever the series length; results do not depend on it.
_CHUNK_ROWS = 256


@dataclass(frozen=True)
class RollingConfig:
    """Window size, lag and estimator for one sweep.

    ``plan_policy`` None selects the fixed 250-sample fragmentation when
    window == 250 and the divisors plan otherwise, with a doubling plan
    when the divisors are too few (see ``_scheme``).
    """

    window: int = 250
    lag: int = 5
    estimator: EstimatorKind = EstimatorKind.RESCALED_RANGE
    transform: Transform = Transform.RAW
    plan_policy: PartitionPolicy | None = None
    min_segment_length: int = DEFAULT_MIN_SEGMENT
    std_mode: StdMode = StdMode.POPULATION
    dfa_fit_target: FitTarget = FitTarget.FLUCTUATION_RMS

    def __post_init__(self):
        if self.window < 2:
            raise ConfigError("window must be >= 2")
        if self.lag < 1:
            raise ConfigError("lag must be >= 1")


@dataclass(frozen=True)
class RollingMeasurement:
    """One window's estimate; h is None for a failed (gap) window."""

    end_date: dt.date
    h: float | None
    r_squared: float | None
    note: str = ""

    @property
    def is_gap(self) -> bool:
        return self.h is None


@dataclass(frozen=True)
class RollingTrace:
    config: RollingConfig
    measurements: tuple[RollingMeasurement, ...]

    @property
    def count(self) -> int:
        return len(self.measurements)

    def h_values(self) -> np.ndarray:
        return np.array([m.h for m in self.measurements if not m.is_gap])


@dataclass(frozen=True)
class TraceSummary:
    """Extrema, mean and cut-point proportions over non-gap measurements.

    Proportions use strict inequalities on both sides: a measurement
    exactly at a cut point counts for neither side.
    """

    h_min: float
    h_max: float
    h_mean: float
    first_measurement_date: dt.date
    count: int
    proportions: dict[float, float]
    fraction_below_half: float


class MarketClassKind(Enum):
    MATURE = "mature"
    EMERGENT = "emergent"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class ClassifierThresholds:
    """Defaults for the mature/emergent/hybrid rule; all overridable.

    Calibrated against 250-sample rescaled-range sweeps of synthetic
    traces, whose finite-sample bias centers memoryless series near
    h = 0.56 rather than 0.5: white noise must classify mature, fGn at
    h = 0.8 emergent, and alternating mixtures of the two hybrid.
    """

    mature_band: tuple[float, float] = (0.45, 0.60)
    mature_high_cut: float = 0.7
    mature_high_max_fraction: float = 0.1
    emergent_mean_min: float = 0.6
    emergent_low_cut: float = 0.55
    emergent_low_max_fraction: float = 0.1
    min_measurements: int = 10


@dataclass(frozen=True)
class MarketClass:
    kind: MarketClassKind
    rationale: str


def _scheme(config: RollingConfig, length: int) -> PartitionPlan | DfaConfig:
    """The R/S partition plan or DFA box schedule for windows of a length.

    When the default plan resolves to divisors and the length has too few
    of them (a prime, say), the segments are the doubling lengths
    min_segment * 2^k <= length/2 instead; as with preset250, each scale
    discards the trailing remainder.
    """
    if config.estimator is EstimatorKind.DFA:
        return DfaConfig(box_sizes=default_box_sizes(length),
                         fit_target=config.dfa_fit_target)
    policy = config.plan_policy
    if policy is None:
        policy = (PartitionPolicy.PRESET_250 if config.window == 250
                  else PartitionPolicy.DIVISORS_ONLY)
    try:
        return build_partition_plan(length, policy, config.min_segment_length)
    except InvalidPlanError:
        if (config.plan_policy is not None
                or policy is not PartitionPolicy.DIVISORS_ONLY):
            raise
    # A bad min_segment or length fails the same checks again below.
    base = config.min_segment_length
    doubling = [base * 2 ** k for k in range(length.bit_length())
                if base * 2 ** k <= length // 2]
    return build_partition_plan(length, PartitionPolicy.EXPLICIT,
                                config.min_segment_length, explicit=doubling)


def estimate_window(values: np.ndarray, config: RollingConfig):
    """Standalone estimate of one window under a rolling config."""
    scheme = _scheme(config, values.size)
    if isinstance(scheme, PartitionPlan):
        return estimate_hurst_rs(values, scheme, config.std_mode)
    return estimate_hurst_dfa(values, scheme)


def _fit_rows(rows: np.ndarray, scheme: PartitionPlan | DfaConfig,
              std_mode: StdMode) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h, r_squared, fitted) for windows stacked as (rows, window); fitted
    is False exactly where the standalone estimate of the window raises."""
    with np.errstate(divide="ignore", invalid="ignore"):
        if isinstance(scheme, PartitionPlan):
            stats = rs_curve_rows(rows, scheme.segment_lengths, std_mode)[0]
            h, _, r_squared, _ = ols_rows(np.log(scheme.segment_lengths),
                                          np.log(stats))
        else:
            stats = dfa_curve_rows(rows, scheme)
            h, _, r_squared, _ = dfa_fit_rows(scheme.box_sizes, stats,
                                              scheme.fit_target)
        fitted = (np.isfinite(stats) & (stats > 0.0)).all(axis=-1)
    return h, r_squared, fitted


def sweep(returns: ReturnSeries, config: RollingConfig) -> RollingTrace:
    """Estimate h over every window; exactly floor((L-w)/lag)+1 entries."""
    transformed = transform_returns(returns, config.transform)
    values = transformed.values
    length = values.size
    if length < config.window:
        raise SeriesTooShortError(
            f"{length} returns cannot fill a window of {config.window}"
        )
    scheme = _scheme(config, config.window)
    windows = sliding_window_view(values, config.window)[::config.lag]
    chunks = [_fit_rows(np.ascontiguousarray(windows[i:i + _CHUNK_ROWS]),
                        scheme, config.std_mode)
              for i in range(0, len(windows), _CHUNK_ROWS)]
    h, r_squared, fitted = (np.concatenate(part).tolist() for part in zip(*chunks))
    measurements = []
    for i, (h_i, r2_i, ok) in enumerate(zip(h, r_squared, fitted)):
        end_date = transformed.dates[i * config.lag + config.window - 1]
        if ok:
            measurements.append(RollingMeasurement(end_date, h_i, r2_i))
            continue
        try:  # the standalone estimate raises exactly on unfit windows
            estimate_window(windows[i], config)
        except ComputationError as exc:
            measurements.append(RollingMeasurement(
                end_date, None, None, note=f"{type(exc).__name__}: {exc}"))
    return RollingTrace(config=config, measurements=tuple(measurements))


def summarize(trace: RollingTrace, cut_points: tuple[float, ...] = (0.5, 0.6, 0.7)
              ) -> TraceSummary:
    """Extrema/mean/proportions of the usable measurements."""
    if not all(math.isfinite(c) for c in cut_points):
        raise ConfigError(f"cut points must be finite, got {list(cut_points)}")
    if len(set(cut_points)) < len(cut_points):
        raise ConfigError(f"cut points must be distinct, got {list(cut_points)}")
    h = trace.h_values()
    if h.size == 0:
        raise EmptyTraceError("trace has no usable measurements")
    proportions = {float(c): float((h > c).mean()) for c in cut_points}
    return TraceSummary(
        h_min=float(h.min()),
        h_max=float(h.max()),
        h_mean=float(h.mean()),
        first_measurement_date=trace.measurements[0].end_date,
        count=int(h.size),
        proportions=proportions,
        fraction_below_half=float((h < 0.5).mean()),
    )


def classify_market(trace: RollingTrace,
                    thresholds: ClassifierThresholds = ClassifierThresholds(),
                    ) -> MarketClass:
    """Mature / emergent / hybrid from the trace's h distribution."""
    h = trace.h_values()
    if h.size < thresholds.min_measurements:
        raise TraceTooShortError(
            f"need at least {thresholds.min_measurements} measurements, "
            f"got {h.size}"
        )
    mean = float(h.mean())
    lo, hi = thresholds.mature_band
    frac_high = float((h > thresholds.mature_high_cut).mean())
    frac_low = float((h < thresholds.emergent_low_cut).mean())
    if lo <= mean <= hi and frac_high <= thresholds.mature_high_max_fraction:
        kind = MarketClassKind.MATURE
        rationale = (f"mean h {mean:.3f} in [{lo}, {hi}] and only "
                     f"{frac_high:.0%} of windows above "
                     f"{thresholds.mature_high_cut}")
    elif (mean >= thresholds.emergent_mean_min
          and frac_low <= thresholds.emergent_low_max_fraction):
        kind = MarketClassKind.EMERGENT
        rationale = (f"mean h {mean:.3f} >= {thresholds.emergent_mean_min} "
                     f"and only {frac_low:.0%} of windows below "
                     f"{thresholds.emergent_low_cut}")
    else:
        kind = MarketClassKind.HYBRID
        rationale = (f"mean h {mean:.3f} with {frac_high:.0%} above "
                     f"{thresholds.mature_high_cut} and {frac_low:.0%} below "
                     f"{thresholds.emergent_low_cut} fits neither profile")
    return MarketClass(kind=kind, rationale=rationale)
