"""Ordinary least squares in log-log space for scaling exponents."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateCurveError, InvalidCurveError, require_instance


class EstimatorKind(Enum):
    RESCALED_RANGE = "rescaled_range"
    DFA = "dfa"


UNFITTABLE = "statistics must be finite and strictly positive for the log fit"


def fittable(statistics) -> np.ndarray:
    """Whether every statistic of each curve (the last axis) is finite and
    strictly positive; ScalingCurve raises DegenerateCurveError(UNFITTABLE)
    for a curve that is not."""
    s = np.asarray(statistics, dtype=np.float64)
    return (np.isfinite(s) & (s > 0.0)).all(axis=-1)


@dataclass(frozen=True)
class ScalingCurve:
    """Pairs (scale, statistic) destined for a log-log regression.

    Scales must be strictly increasing positive integers, statistics
    strictly positive (both axes get logged), and at least three scales
    are required for a meaningful fit.
    """

    scales: tuple[int, ...]
    statistics: tuple[float, ...]
    kind: EstimatorKind

    def __post_init__(self):
        if len(self.scales) != len(self.statistics):
            raise InvalidCurveError("scales and statistics differ in length")
        if len(self.scales) < 3:
            raise DegenerateCurveError(
                f"need at least 3 scales, got {len(self.scales)}"
            )
        if any(s2 <= s1 for s1, s2 in zip(self.scales, self.scales[1:])):
            raise InvalidCurveError("scales must be strictly increasing")
        if self.scales[0] <= 0:
            raise InvalidCurveError("scales must be positive")
        if not fittable(self.statistics):
            raise DegenerateCurveError(UNFITTABLE)


@dataclass(frozen=True)
class PowerLawFit:
    """Slope/intercept/goodness of a log-log OLS fit.

    ``flat`` marks the degenerate zero-variance-in-y case where the
    Pearson correlation is undefined; slope is 0 and r_squared is
    reported as 0 there.
    """

    exponent: float
    intercept: float
    r_squared: float
    flat: bool = False


def ols_rows(x: np.ndarray, y: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """ols_line of each row of y (shape (..., k)) on the shared x (k,).

    Returns (slope, intercept, r_squared, flat) arrays of y's leading
    shape. Sums are last-axis reductions, never a BLAS dot, so a row's
    result does not depend on how many rows share the call.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size < 2:
        raise DegenerateCurveError("need at least 2 points for a line")
    x_mean = x.mean()
    xm = x - x_mean
    sxx = (xm * xm).sum()
    if sxx <= 0.0:
        raise DegenerateCurveError("zero variance in the independent variable")
    y_mean = y.mean(axis=-1)
    ym = y - y_mean[..., None]
    syy = (ym * ym).sum(axis=-1)
    sxy = (xm * ym).sum(axis=-1)
    flat = syy == 0.0
    slope = np.where(flat, 0.0, sxy / sxx)
    intercept = y_mean - slope * x_mean
    r_squared = np.where(
        flat, 0.0, np.minimum(1.0, (sxy * sxy) / (sxx * np.where(flat, 1.0, syy))))
    return slope, intercept, r_squared, flat


def ols_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, bool]:
    """Plain OLS of y on x: (slope, intercept, r_squared, flat).

    Raises DegenerateCurveError when x has no variance. Zero variance in
    y gives slope 0, r_squared 0 and flat=True. Exactly collinear points
    report r_squared 1 even in the presence of rounding noise below
    1e-15 of the data scale. This is the one-row case of ols_rows.
    """
    return tuple(v.item() for v in ols_rows(x, [y]))


def fit_loglog(curve: ScalingCurve) -> PowerLawFit:
    """Fit log(statistic) on log(scale); the slope is the scaling exponent.

    Natural logs on both axes. The exponent is invariant under rescaling
    either axis by a positive constant; only the intercept moves.
    """
    require_instance(curve, ScalingCurve, "curve", InvalidCurveError)
    log_n = np.log(np.asarray(curve.scales, dtype=np.float64))
    log_s = np.log(np.asarray(curve.statistics, dtype=np.float64))
    slope, intercept, r_squared, flat = ols_line(log_n, log_s)
    return PowerLawFit(exponent=slope, intercept=intercept,
                       r_squared=r_squared, flat=flat)
