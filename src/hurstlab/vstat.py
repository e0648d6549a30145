"""V-statistic cycle test: V_n = (R/S)_n / sqrt(n) against log n.

A memoryless series traces a horizontal V line, a persistent one an
increasing line and an anti-persistent one a decreasing line. The trend
is the sign of the OLS slope of V on log n, with a flat band around zero
calibrated on seeded white noise (finite samples bias small-scale R/S
upward, so the band must absorb that tilt).
"""
from __future__ import annotations

import math
from enum import Enum

import numpy as np

from ._record import Record
from .errors import (
    ConfigError,
    InvalidCurveError,
    require_float,
    require_instance,
)
from .regression import EstimatorKind, ScalingCurve, ols_line

#: Half-width of the flat band, in V units per unit log n. Calibrated so
#: that length-4096 white noise classifies Flat in >= 80% of seeds while
#: fGn at h = 0.2 / 0.8 still classifies Decreasing / Increasing in
#: >= 90%; see tests/test_vstat.py for the seeded calibration checks.
DEFAULT_FLAT_TOLERANCE = 0.09


class Trend(Enum):
    FLAT = "flat"
    INCREASING = "increasing"
    DECREASING = "decreasing"


class VStatCurve(Record):
    """Point-wise V statistic with its fitted trend.

    ``peak_scale`` (the scale of the largest V) is a diagnostic only; no
    cycle length is claimed from it.
    """

    log_scales: tuple[float, ...]
    v_values: tuple[float, ...]
    slope: float
    trend: Trend
    peak_scale: int


def v_statistic(curve: ScalingCurve,
                flat_tolerance: float = DEFAULT_FLAT_TOLERANCE) -> VStatCurve:
    """Compute V_n from a rescaled-range curve and classify its trend."""
    require_instance(curve, ScalingCurve, "curve", InvalidCurveError)
    if curve.kind is not EstimatorKind.RESCALED_RANGE:
        raise InvalidCurveError("V statistic is defined on rescaled-range curves")
    flat_tolerance = require_float(flat_tolerance, "flat_tolerance")
    if not (math.isfinite(flat_tolerance) and flat_tolerance >= 0.0):
        raise ConfigError(f"flat_tolerance must be finite and >= 0, got "
                          f"{flat_tolerance}")
    scales = np.asarray(curve.scales, dtype=np.float64)
    stats = np.asarray(curve.statistics, dtype=np.float64)
    v = stats / np.sqrt(scales)
    log_n = np.log(scales)
    slope, _, _, _ = ols_line(log_n, v)
    if abs(slope) <= flat_tolerance:
        trend = Trend.FLAT
    elif slope > 0:
        trend = Trend.INCREASING
    else:
        trend = Trend.DECREASING
    return VStatCurve(
        log_scales=tuple(log_n.tolist()),
        v_values=tuple(v.tolist()),
        slope=slope,
        trend=trend,
        peak_scale=int(curve.scales[int(np.argmax(v))]),
    )
