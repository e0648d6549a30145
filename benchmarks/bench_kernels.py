"""Time the R/S and DFA segment-table kernels on a rolling-sweep-shaped
series, in each layout the sweep can take.

A sweep calls ``_kernels.window_sums`` (R/S through ``rs_window_sums``)
once per scale on the whole series: R/S over the ten-segment preset with
windows of 250 at lag 1, DFA over the default box schedule with windows
of 256 at lag 5, as the ``rolling`` benchmark workload runs them. Per
scale, ``_kernels._reads_windows`` picks the layout: the windows'
own segments evaluated as rows, or each start of the gcd grid evaluated
once into a table. Each kernel is timed three ways: by that rule, as the
sweep runs it, and with the rule forced to each layout. All three must
agree bit for bit. An eval is one window's statistic at one scale.

    python3 benchmarks/bench_kernels.py [--windows 2000] [--repeat 3]
"""
import argparse
import time
from unittest import mock

import numpy as np

from hurstlab import _kernels
from hurstlab.dfa import default_box_sizes
from hurstlab.rescaled_range import PRESET_250_SEGMENTS


def rs_sums(x, window, lag, n):
    return _kernels.rs_window_sums(x, window, lag, n, 0)[:2]


def dfa_sums(x, window, lag, tau):
    return _kernels.window_sums(x, window, lag, tau, lambda rows: (
        _kernels.dfa_box_fsq(rows, tau),))[:1]


def bench(fn, x, window, lag, scales, repeat, layout=None):
    """Best time over `repeat` passes over every scale, and the sums of
    the last pass; layout forces _reads_windows to True or False."""
    rule = (_kernels._reads_windows if layout is None
            else lambda *args: layout)
    best = float("inf")
    with mock.patch.object(_kernels, "_reads_windows", rule):
        for _ in range(repeat):
            start = time.perf_counter()
            sums = [fn(x, window, lag, scale) for scale in scales]
            best = min(best, time.perf_counter() - start)
    return best, [q.tolist() for per_scale in sums for q in per_scale]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--windows", type=int, default=2000)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.Generator(np.random.PCG64(args.seed))
    jobs = [("rs", rs_sums, 250, 1, sorted(PRESET_250_SEGMENTS)),
            ("dfa", dfa_sums, 256, 5, default_box_sizes(256))]
    for kernel, fn, window, lag, scales in jobs:
        x = rng.standard_normal((args.windows - 1) * lag + window)
        evals = args.windows * len(scales)
        timed = [bench(fn, x, window, lag, scales, args.repeat, layout)
                 for layout in (None, True, False)]
        if any(sums != timed[0][1] for _, sums in timed[1:]):
            raise SystemExit(f"{kernel}: the layouts' sums differ")
        (sweep_s, _), (rows_s, _), (grid_s, _) = timed
        print(f"{kernel:4s} {evals:7d} evals | numpy {sweep_s:8.3f}s "
              f"({1e6 * sweep_s / evals:7.1f} us/eval) "
              f"| windows as rows {rows_s:8.3f}s "
              f"({1e6 * rows_s / evals:7.1f} us/eval) "
              f"| grid table {grid_s:8.3f}s "
              f"({1e6 * grid_s / evals:7.1f} us/eval)")


if __name__ == "__main__":
    main()
