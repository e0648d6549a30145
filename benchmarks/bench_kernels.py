"""Time the R/S and DFA kernels on a rolling-sweep-shaped workload.

Many 250-sample windows: R/S over the ten-segment preset, DFA (the mean
per-box F^2 of the integrated signal) over the default box schedule of a
250-sample window. Each kernel is timed two ways: batched (windows
stacked as rows, _kernels._TABLE_VALUES // 250 = 65 per call) and one
window per call, as a standalone estimate calls both. The two must
agree bit for bit. A rolling sweep calls both kernels on windows
stacked the same way where that costs less than the gcd grid of their
starts, else on one table per scale over that grid: R/S by strided
columns of the series, DFA by box rows (see ``hurstlab._kernels``).

    python3 benchmarks/bench_kernels.py [--windows 2000] [--repeat 3]
"""
import argparse
import time

import numpy as np

from hurstlab import _kernels
from hurstlab.dfa import default_box_sizes
from hurstlab.rescaled_range import PRESET_250_SEGMENTS


def rs_statistic(x, n):
    total, defined, _ = _kernels.rs_segment_sums(x, n, 0)
    return total / np.maximum(defined, 1)


def dfa_statistic(x, tau):
    return _kernels.dfa_box_fsq(x, tau).mean(axis=-1)


def bench(fn, batches, scales, repeat):
    """Best time over `repeat` passes, and the (windows, scales) results."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        results = [np.stack([fn(batch, scale) for scale in scales], axis=-1)
                   for batch in batches]
        best = min(best, time.perf_counter() - start)
    return best, np.vstack(results)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--windows", type=int, default=2000)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.Generator(np.random.PCG64(args.seed))
    windows = rng.standard_normal((args.windows, 250))
    step = _kernels._TABLE_VALUES // 250
    chunks = [windows[i:i + step] for i in range(0, args.windows, step)]
    singles = list(windows)

    jobs = [("rs", sorted(PRESET_250_SEGMENTS), rs_statistic),
            ("dfa", default_box_sizes(250), dfa_statistic)]
    for kernel, scales, fn in jobs:
        evals = args.windows * len(scales)
        batched_time, batched = bench(fn, chunks, scales, args.repeat)
        single_time, single = bench(fn, singles, scales, args.repeat)
        if not np.array_equal(batched, single):
            raise SystemExit(f"{kernel}: batched and one-window results differ")
        print(f"{kernel:4s} {evals:7d} evals | numpy {batched_time:8.3f}s "
              f"({1e6 * batched_time / evals:7.1f} us/eval) "
              f"| one window per call {single_time:8.3f}s "
              f"({1e6 * single_time / evals:7.1f} us/eval) "
              f"| batch speedup {single_time / batched_time:5.1f}x")


if __name__ == "__main__":
    main()
