"""Sliding-window ("dynamic") Hurst estimation over a long return series.

Window i covers returns [i*lag, i*lag + window) of the series as given;
an absolute or squared reading is transformed first, with
``series.transform_returns``. The sweep builds the R/S plan or DFA box
schedule once and makes one call of its estimator's fit function,
``rs_fits`` or ``dfa_fits``, on the whole series: every window's curve,
its fit, and the error of each window that cannot be fitted. A
standalone estimate is row 0 of the same function on the slice alone,
so a trace entry equals it bit for bit under every config, and a window
that cannot be fitted is kept as a gap noted with the very error that
estimate raises, without estimating the window again.
"""
from __future__ import annotations

import datetime as dt
import math
from enum import Enum

import numpy as np

from ._record import Record
from .dfa import (
    DfaConfig,
    default_box_sizes,
    dfa_fits,
    estimate_hurst_dfa,
)
from .errors import (
    ConfigError,
    EmptyTraceError,
    SeriesTooShortError,
    InvalidPlanError,
    TraceTooShortError,
    require_equal_lengths,
    require_floats,
    require_instance,
    require_int,
)
from .rescaled_range import (
    DEFAULT_MIN_SEGMENT,
    EstimatorKind,
    PartitionPlan,
    PartitionPolicy,
    StdMode,
    build_partition_plan,
    estimate_hurst_rs,
    rs_fits,
)
from .series import ReturnSeries, finite_values


class RollingConfig(Record):
    """Window size, lag and estimator for one sweep.

    The plan policy, minimum segment length and std mode are read by R/S
    only; a DFA config must leave them at their defaults.
    """

    window: int = 250
    lag: int = 5
    estimator: EstimatorKind = EstimatorKind.RESCALED_RANGE
    plan_policy: PartitionPolicy = PartitionPolicy.AUTO
    min_segment_length: int = DEFAULT_MIN_SEGMENT
    std_mode: StdMode = StdMode.POPULATION

    def __post_init__(self):
        for name in ("window", "lag"):
            value = require_int(getattr(self, name), name)
            object.__setattr__(self, name, value)
        if self.window < 2:
            raise ConfigError("window must be >= 2")
        if self.lag < 1:
            raise ConfigError("lag must be >= 1")
        for name, kind in (("estimator", EstimatorKind), ("std_mode", StdMode)):
            require_instance(getattr(self, name), kind, name)
        require_instance(self.plan_policy, PartitionPolicy, "policy",
                         InvalidPlanError)
        object.__setattr__(self, "min_segment_length", require_int(
            self.min_segment_length, "min_segment_length", InvalidPlanError))
        if self.estimator is EstimatorKind.DFA:
            for name in _RS_ONLY_FIELDS:
                value, default = getattr(self, name), self._defaults[name]
                if value != default:
                    raise ConfigError(
                        f"the {self.estimator.value} estimator does not read "
                        f"{name}; got {value}, leave it at {default}")


#: The RollingConfig fields that R/S reads and DFA does not.
_RS_ONLY_FIELDS = ("plan_policy", "min_segment_length", "std_mode")


class RollingMeasurement(Record):
    """One window's estimate; h is None for a failed (gap) window."""

    end_date: dt.date
    h: float | None
    r_squared: float | None
    note: str = ""

    @property
    def is_gap(self) -> bool:
        return self.h is None


class RollingTrace(Record):
    """A sweep's columns, an entry per window: its last return's date, its
    fit (None at a gap) and the gap's error, "" where it was fitted."""

    end_dates: tuple[dt.date, ...]
    h: tuple[float | None, ...]
    r_squared: tuple[float | None, ...]
    notes: tuple[str, ...]

    def __post_init__(self):
        require_equal_lengths(self, "end_dates", "h", "r_squared", "notes")

    @property
    def count(self) -> int:
        return len(self.h)

    @property
    def measurements(self) -> tuple[RollingMeasurement, ...]:
        """The columns as one record per window, built on each read."""
        return tuple(map(RollingMeasurement, self.end_dates, self.h,
                         self.r_squared, self.notes))

    def h_values(self) -> np.ndarray:
        return np.array([h for h in self.h if h is not None])


class TraceSummary(Record):
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


# The mature/emergent/hybrid rule of classify_market. Calibrated against
# 250-sample rescaled-range sweeps of synthetic traces, whose
# finite-sample bias centers memoryless series near h = 0.56 rather than
# 0.5: white noise must classify mature, fGn at h = 0.8 emergent, and
# alternating mixtures of the two hybrid.
MATURE_BAND = (0.45, 0.60)
MATURE_HIGH_CUT = 0.7
MATURE_HIGH_MAX_FRACTION = 0.1
EMERGENT_MEAN_MIN = 0.6
EMERGENT_LOW_CUT = 0.55
EMERGENT_LOW_MAX_FRACTION = 0.1
MIN_MEASUREMENTS = 10


class MarketClass(Record):
    kind: MarketClassKind
    rationale: str


def _scheme(config: RollingConfig, length: int) -> PartitionPlan | DfaConfig:
    """The R/S partition plan or DFA box schedule for windows of a length."""
    if config.estimator is EstimatorKind.DFA:
        return DfaConfig(default_box_sizes(length))
    return build_partition_plan(length, config.plan_policy,
                                config.min_segment_length)


def estimate_window(values: np.ndarray, config: RollingConfig):
    """Standalone estimate of one window under a rolling config: the
    window is the values given, so the config's window and lag are not
    read."""
    require_instance(config, RollingConfig, "rolling config")
    x = finite_values(values)
    scheme = _scheme(config, x.size)
    if isinstance(scheme, PartitionPlan):
        return estimate_hurst_rs(x, scheme, config.std_mode)
    return estimate_hurst_dfa(x, scheme)


def sweep(returns: ReturnSeries, config: RollingConfig) -> RollingTrace:
    """Estimate h over every window of the returns as given; exactly
    floor((L-w)/lag)+1 entries, a gap exactly where the fit function
    gives an error."""
    require_instance(returns, ReturnSeries, "return series")
    require_instance(config, RollingConfig, "rolling config")
    values = returns.values
    window, lag = config.window, config.lag
    if values.size < window:
        raise SeriesTooShortError(
            f"{values.size} returns cannot fill a window of {window}"
        )
    scheme = _scheme(config, window)
    # The curves are freed here; only the fit and the errors are kept.
    (h, _, r_squared, _), errors = (
        rs_fits(values, window, lag, scheme, config.std_mode)
        if isinstance(scheme, PartitionPlan)
        else dfa_fits(values, window, lag, scheme))[1:3]
    h, r_squared = h.tolist(), r_squared.tolist()
    notes = [""] * len(h)
    for i, exc in errors.items():
        h[i] = r_squared[i] = None
        notes[i] = f"{type(exc).__name__}: {exc}"
    return RollingTrace(returns.dates[window - 1::lag], tuple(h),
                        tuple(r_squared), tuple(notes))


def summarize(trace: RollingTrace, cut_points: tuple[float, ...] = (0.5, 0.6, 0.7)
              ) -> TraceSummary:
    """Extrema/mean/proportions of the usable measurements."""
    cut_points = require_floats(cut_points, "cut point")
    if not all(math.isfinite(c) for c in cut_points):
        raise ConfigError(f"cut points must be finite, got {list(cut_points)}")
    if len(set(cut_points)) < len(cut_points):
        raise ConfigError(f"cut points must be distinct, got {list(cut_points)}")
    h = require_instance(trace, RollingTrace, "trace").h_values()
    if h.size == 0:
        raise EmptyTraceError("trace has no usable measurements")
    proportions = {float(c): float((h > c).mean()) for c in cut_points}
    return TraceSummary(
        h_min=float(h.min()),
        h_max=float(h.max()),
        h_mean=float(h.mean()),
        first_measurement_date=trace.end_dates[0],
        count=int(h.size),
        proportions=proportions,
        fraction_below_half=float((h < 0.5).mean()),
    )


def classify_market(trace: RollingTrace) -> MarketClass:
    """Mature / emergent / hybrid from the trace's h distribution."""
    h = require_instance(trace, RollingTrace, "trace").h_values()
    if h.size < MIN_MEASUREMENTS:
        raise TraceTooShortError(
            f"need at least {MIN_MEASUREMENTS} measurements, got {h.size}"
        )
    mean = float(h.mean())
    lo, hi = MATURE_BAND
    frac_high = float((h > MATURE_HIGH_CUT).mean())
    frac_low = float((h < EMERGENT_LOW_CUT).mean())
    if lo <= mean <= hi and frac_high <= MATURE_HIGH_MAX_FRACTION:
        kind = MarketClassKind.MATURE
        rationale = (f"mean h {mean:.3f} in [{lo}, {hi}] and only "
                     f"{frac_high:.0%} of windows above {MATURE_HIGH_CUT}")
    elif mean >= EMERGENT_MEAN_MIN and frac_low <= EMERGENT_LOW_MAX_FRACTION:
        kind = MarketClassKind.EMERGENT
        rationale = (f"mean h {mean:.3f} >= {EMERGENT_MEAN_MIN} "
                     f"and only {frac_low:.0%} of windows below "
                     f"{EMERGENT_LOW_CUT}")
    else:
        kind = MarketClassKind.HYBRID
        rationale = (f"mean h {mean:.3f} with {frac_high:.0%} above "
                     f"{MATURE_HIGH_CUT} and {frac_low:.0%} below "
                     f"{EMERGENT_LOW_CUT} fits neither profile")
    return MarketClass(kind=kind, rationale=rationale)
