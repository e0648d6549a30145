"""Hot numeric kernels: per-scale R/S segment sums and DFA box residuals.

Each kernel takes windows stacked as an array of shape (..., length) and
reduces over the last axis, so one call serves one window (a 1-D array)
or a whole chunk of a rolling sweep. The arithmetic is elementwise
products and last-axis sums only, never a BLAS dot: a window's result
then does not depend on how many other windows share the call, which is
what keeps a rolling-trace entry bit-for-bit equal to the standalone
estimate of the same slice.
"""
from __future__ import annotations

import numpy as np


def rs_segment_sums(x: np.ndarray, n: int, ddof: int
                    ) -> tuple[np.ndarray, np.ndarray, int]:
    """Sum of R/S ratios over the floor(length/n) leading segments.

    Returns (ratio_sum, defined_count, segment_count); the first two have
    x's leading shape. Segments with zero (or undefined) standard
    deviation contribute nothing to ratio_sum or defined_count.
    """
    v = x.shape[-1] // n
    seg = x[..., : v * n].reshape(*x.shape[:-1], v, n)
    dev = seg - seg.mean(axis=-1, keepdims=True)
    std = np.sqrt((dev * dev).sum(axis=-1) / (n - ddof))
    walk = dev.cumsum(axis=-1)
    rng = walk.max(axis=-1) - walk.min(axis=-1)
    defined = std > 0.0
    ratio = np.divide(rng, std, out=np.zeros_like(rng), where=defined)
    return ratio.sum(axis=-1), defined.sum(axis=-1), v


def dfa_box_fsq(x: np.ndarray, tau: int) -> np.ndarray:
    """Mean squared residual of per-box linear fits, averaged over boxes.

    Boxes are anchored at index 0; the trailing remainder is discarded.
    The fit uses the centered time axis for conditioning; residuals are
    identical to an uncentered fit. Returns an array of x's leading shape.
    """
    boxes = x.shape[-1] // tau
    seg = x[..., : boxes * tau].reshape(*x.shape[:-1], boxes, tau)
    t = np.arange(tau, dtype=np.float64) - (tau - 1) / 2.0
    slope = (seg * t).sum(axis=-1) / (t * t).sum()
    level = seg.mean(axis=-1)
    resid = seg - (level[..., None] + slope[..., None] * t)
    fsq = (resid * resid).sum(axis=-1) / tau
    return fsq.mean(axis=-1)
