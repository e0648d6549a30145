"""Detrended fluctuation analysis as a second, independent Hurst estimator.

The series is cut into boxes of tau points; by default each box is
integrated (the cumulative sum of its mean-centred values, which differs
from the whole profile there by a constant and a linear term only). A
straight line is least-squares fitted in each box and the mean squared
residual averaged across boxes gives <F^2(tau)>, whose scaling with tau
carries the Hurst exponent: by default the slope of log sqrt(<F^2>) on
log tau is reported, so white noise comes out near 0.5; fit_target
gives the literal squared-fluctuation reading.

``dfa_curve_rows(x, window, lag, config)`` gives the curves of the
windows of a series from one box table per scale, as R/S does; a
standalone estimate is row 0 of the same call on the series alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from . import _kernels
from .errors import BoxTooLargeError, InvalidPlanError
from .regression import EstimatorKind, PowerLawFit, ScalingCurve, ols_rows
from .rescaled_range import HurstEstimate, estimate_from_curve
from .series import finite_values


class FitTarget(Enum):
    FLUCTUATION_RMS = "rms"          # fit log sqrt(<F^2>) on log tau
    FLUCTUATION_SQUARED = "squared"  # fit log <F^2> on log tau


@dataclass(frozen=True)
class DfaConfig:
    """Box schedule and fitting choices for DFA."""

    box_sizes: tuple[int, ...]
    integrate_first: bool = True
    fit_target: FitTarget = FitTarget.FLUCTUATION_RMS

    def __post_init__(self):
        if len(self.box_sizes) < 3:
            raise InvalidPlanError(
                f"need at least 3 box sizes, got {len(self.box_sizes)}"
            )
        if any(b < 4 for b in self.box_sizes):
            raise InvalidPlanError("box sizes must be >= 4")
        if any(b2 <= b1 for b1, b2 in zip(self.box_sizes, self.box_sizes[1:])):
            raise InvalidPlanError("box sizes must be strictly increasing")

    def validate_for_length(self, length: int) -> None:
        if self.box_sizes[-1] > length // 4:
            raise BoxTooLargeError(
                f"largest box {self.box_sizes[-1]} exceeds length/4 "
                f"= {length // 4}"
            )


def default_box_sizes(length: int, min_box: int = 8) -> tuple[int, ...]:
    """Powers of two from min_box up to length // 4, the largest box
    validate_for_length allows (a 250-value window gets 8, 16 and 32)."""
    if min_box < 4:
        raise InvalidPlanError(f"box sizes must be >= 4, got {min_box}")
    sizes = []
    b = min_box
    while b <= length // 4:
        sizes.append(b)
        b *= 2
    if len(sizes) < 3:
        raise InvalidPlanError(
            f"length {length} too short for a box schedule from {min_box}"
        )
    return tuple(sizes)


def dfa_fluctuation(series: Sequence[float], tau: int,
                    config: DfaConfig | None = None) -> float:
    """Mean squared fluctuation <F^2(tau)> around per-box linear trends.

    Only integrate_first is consulted from the config (default True);
    boxes are anchored at index 0 and the remainder is discarded.
    """
    x = finite_values(series)
    if tau < 4:
        raise InvalidPlanError(f"box size must be >= 4, got {tau}")
    if x.size // tau < 2:
        raise BoxTooLargeError(
            f"box size {tau} leaves fewer than 2 boxes in length {x.size}"
        )
    integrate = True if config is None else config.integrate_first
    return float(_kernels.dfa_box_fsq(x, tau, integrate).mean())


def dfa_curve_rows(x: np.ndarray, window: int, lag: int,
                   config: DfaConfig) -> np.ndarray:
    """<F^2(tau)> at each tau of every window x[i*lag : i*lag + window] of
    a 1-D x, as (windows, len(box_sizes)). Each scale reads one box table
    for all windows."""
    config.validate_for_length(window)
    fsq = np.empty(((x.size - window) // lag + 1, len(config.box_sizes)))
    for k, tau in enumerate(config.box_sizes):
        total, boxes = _kernels.window_sums(x, window, lag, tau, lambda rows: (
            _kernels.dfa_box_fsq(rows, tau, config.integrate_first),))
        fsq[:, k] = total / boxes
    return fsq


def dfa_fit_rows(scales: tuple[int, ...], fsq: np.ndarray,
                 fit_target: FitTarget = FitTarget.FLUCTUATION_RMS,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise fit of <F^2> curves (..., k); the rms target halves the
    log ordinate. Returns ols_rows' (slope, intercept, r_squared, flat)."""
    log_fsq = np.log(fsq)
    if fit_target is FitTarget.FLUCTUATION_RMS:
        log_fsq = 0.5 * log_fsq
    return ols_rows(np.log(scales), log_fsq)


def estimate_hurst_dfa(series: Sequence[float], config: DfaConfig) -> HurstEstimate:
    """DFA estimate: the curve stores <F^2(tau)>, fitted as the sweep's rows."""
    x = finite_values(series)
    stats = dfa_curve_rows(x, x.size, 1, config)[0]
    curve = ScalingCurve(scales=config.box_sizes, statistics=tuple(stats.tolist()),
                         kind=EstimatorKind.DFA)
    fit = PowerLawFit(*(v.item() for v in dfa_fit_rows(
        config.box_sizes, stats, config.fit_target)))
    return estimate_from_curve(curve, EstimatorKind.DFA, fit=fit)
