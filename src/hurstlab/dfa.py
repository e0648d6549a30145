"""Detrended fluctuation analysis as a second, independent Hurst estimator.

The series is cut into boxes of tau points; each box is integrated (the
cumulative sum of its mean-centred values, which differs from the whole
profile there by a constant and a linear term only). A
straight line is least-squares fitted in each box and the mean squared
residual averaged across boxes gives <F^2(tau)>, whose scaling with tau
carries the Hurst exponent: h is the slope of log sqrt(<F^2>) on log tau,
so white noise comes out near 0.5. The slope of log <F^2> is exactly 2h
and is not reported apart.

``dfa_curve_rows(x, window, lag, config)`` gives the curves of the
windows of a series from one box table per scale, as R/S does; a
standalone estimate is row 0 of the sweep's ``dfa_fits`` call on its series.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from . import _kernels
from ._record import Record
from .errors import (
    BoxTooLargeError,
    InvalidPlanError,
    require_instance,
    require_ints,
)
from .regression import EstimatorKind, fit_rows, unfittable_rows
from .rescaled_range import HurstEstimate, estimate_from_fits
from .series import finite_values


class DfaConfig(Record):
    """Box schedule for DFA."""

    box_sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "box_sizes", require_ints(
            self.box_sizes, "box size", InvalidPlanError))
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


def default_box_sizes(length: int) -> tuple[int, ...]:
    """Powers of two from 8 up to length // 4, the largest box
    validate_for_length allows (a 250-value window gets 8, 16 and 32)."""
    sizes = []
    b = 8
    while b <= length // 4:
        sizes.append(b)
        b *= 2
    if len(sizes) < 3:
        raise InvalidPlanError(
            f"length {length} too short for a box schedule from 8"
        )
    return tuple(sizes)


def dfa_fluctuation(series: Sequence[float], tau: int) -> float:
    """Mean squared fluctuation <F^2(tau)> around per-box linear trends of
    the integrated boxes; boxes are anchored at index 0 and the remainder
    is discarded. It is the statistic of the DFA curve at tau.
    """
    x = finite_values(series)
    if tau < 4:
        raise InvalidPlanError(f"box size must be >= 4, got {tau}")
    if x.size // tau < 2:
        raise BoxTooLargeError(
            f"box size {tau} leaves fewer than 2 boxes in length {x.size}"
        )
    return _mean_fsq(x, x.size, 1, tau)[0].item()


def dfa_curve_rows(x: np.ndarray, window: int, lag: int,
                   config: DfaConfig) -> np.ndarray:
    """<F^2(tau)> at each tau of every window x[i*lag : i*lag + window] of
    a 1-D x, as (windows, len(box_sizes)). Each scale reads one box table
    for all windows."""
    config.validate_for_length(window)
    fsq = np.empty(((x.size - window) // lag + 1, len(config.box_sizes)))
    for k, tau in enumerate(config.box_sizes):
        fsq[:, k] = _mean_fsq(x, window, lag, tau)
    return fsq


def _mean_fsq(x: np.ndarray, window: int, lag: int, tau: int) -> np.ndarray:
    """Mean F^2 over the boxes of tau values of every window."""
    total, boxes = _kernels.window_sums(x, window, lag, tau, lambda rows: (
        _kernels.dfa_box_fsq(rows, tau),))
    return total / boxes


def dfa_fits(x: np.ndarray, window: int, lag: int, config: DfaConfig
             ) -> tuple:
    """(curves, fit, errors) of every window x[i*lag : i*lag + window]: its
    <F^2> curve, its fit of log sqrt(<F^2>) and, by window, the error of
    each unfittable one."""
    fsq = dfa_curve_rows(x, window, lag, config)
    return fsq, fit_rows(config.box_sizes, fsq, 0.5), unfittable_rows(fsq)


def estimate_hurst_dfa(series: Sequence[float], config: DfaConfig) -> HurstEstimate:
    """DFA estimate of <F^2(tau)>: row 0 of dfa_fits on the series."""
    require_instance(config, DfaConfig, "DFA config", InvalidPlanError)
    x = finite_values(series)
    return estimate_from_fits(config.box_sizes, EstimatorKind.DFA,
                              *dfa_fits(x, x.size, 1, config))
