"""Ordinary least squares in log-log space for scaling exponents."""
from __future__ import annotations

from enum import Enum

import numpy as np

from ._record import Record
from .errors import DegenerateCurveError, InvalidCurveError, require_instance


class EstimatorKind(Enum):
    RESCALED_RANGE = "rescaled_range"
    DFA = "dfa"


def unfittable_rows(statistics) -> dict[int, DegenerateCurveError]:
    """The error of each curve (last axis) whose statistics are not all
    finite and strictly positive, by row; ScalingCurve raises through it."""
    s = np.asarray(statistics, dtype=np.float64)
    bad = np.flatnonzero(~(np.isfinite(s) & (s > 0.0)).all(axis=-1))
    return dict.fromkeys(bad.tolist(), DegenerateCurveError(
        "statistics must be finite and strictly positive for the log fit"))


class ScalingCurve(Record):
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
        if errors := unfittable_rows([self.statistics]):
            raise errors[0]


class PowerLawFit(Record):
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


def fit_rows(scales, statistics, factor: float = 1.0
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """ols_rows of factor * log(statistic) on log(scale), curve by curve;
    a curve that unfittable_rows names fits to NaN without a warning."""
    with np.errstate(divide="ignore", invalid="ignore"):
        log_s = np.log(statistics)
        log_s *= factor
        return ols_rows(np.log(scales), log_s)


def fit_loglog(curve: ScalingCurve) -> PowerLawFit:
    """Fit log(statistic) on log(scale); the slope is the scaling exponent.

    Natural logs on both axes. The exponent is invariant under rescaling
    either axis by a positive constant; only the intercept moves.
    """
    require_instance(curve, ScalingCurve, "curve", InvalidCurveError)
    return PowerLawFit(*(v.item() for v in fit_rows(curve.scales,
                                                    [curve.statistics])))
