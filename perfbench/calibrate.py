"""Calibrate the ground-truth check's tolerance on recovered h.

    python3 perfbench/calibrate.py [--seeds 200]

Draws fgn(4096, 0.7) for seeds 0..N-1 with hurstlab's generator (imported
from src/), estimates h with the plain-numpy oracles in checks.py on the
plans the CLI uses (R/S over the divisors of 4096; DFA over powers of two
up to length/8 and up to length/4), and prints the largest deviation
from 0.7 per estimator. checks.VALIDATE_TOL is set ~50% above it, so a
correct generator does not fail the check on any benchmark seed.
"""
import argparse
import os
import sys

import numpy as np

import checks

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))
from hurstlab.synthetic import fgn  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=200)
    args = parser.parse_args()
    n, h = 4096, checks.VALIDATE_H
    dev = {"rs": [], "dfa": []}
    for seed in range(args.seeds):
        x = fgn(n, h, seed)
        dev["rs"].append(checks.rs_fit(x, checks.divisors(n))[0] - h)
        dev["dfa"].extend(checks.dfa_fit(x, s)[0] - h for s in checks.dfa_schedules(n))
    for est, d in dev.items():
        d = np.array(d)
        print(f"{est}: mean {d.mean():+.4f} sd {d.std():.4f} "
              f"max |h - {h}| {np.abs(d).max():.4f} over {args.seeds} seeds; "
              f"tolerance in use {checks.VALIDATE_TOL[est]}")


if __name__ == "__main__":
    main()
