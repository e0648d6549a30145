"""Run the benchmark on two source trees in alternating pairs and compare
their end-to-end metrics.

    python3 benchmarks/paired.py --parent DIR --change DIR \\
        --workload rolling one-shot --pairs 10 --seconds 10 \\
        [--seeds 0 1 ...] --out BENCH.json

Each tree runs its own ``perfbench/run.py --trace 0`` from its own root,
so each side is measured by the benchmark it ships. Pair i runs both
sides one after the other, the parent first when i is even and the
change first when i is odd, on seed ``seeds[i % len(seeds)]`` for both.
The metrics compared are the ``end_to_end`` list of the change tree's
``BENCHMARK.json``; nothing here sets or loosens a bound.

The output holds, for each workload and metric, each side's median and
quartiles, the parent's interquartile range, the number of pairs the
change won (better by the metric's direction), and the change's median
relative to the parent's; every run's ``correct``, ``attempted`` and
``failed``; and one machine line: cores, Python, numpy, bytecode mode.
A summary table goes to stdout. The exit status is 1 when any run is not
``correct: true`` or prints no result, else 0.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy

SIDES = ("parent", "change")


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in a tree: its JSON result line, or a record of
    why there is none."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        result["correct"]
    except (IndexError, ValueError, TypeError, KeyError):
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "returncode": proc.returncode,
                "error": (proc.stderr or proc.stdout)[-500:]}
    result["returncode"] = proc.returncode
    return result


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": statistics.median(values), "q3": q3}


def compare(spec: dict, runs: list[dict]) -> dict:
    """Each side's quartiles of one metric, the parent's IQR, and the pairs
    in which the change was better, over the pairs where both sides
    reported it."""
    name, lower = spec["name"], spec["better"] == "lower"
    by_pair = {}
    for run in runs:
        metric = run["result"]["metrics"].get(name)
        if metric is not None:
            by_pair.setdefault(run["pair"], {})[run["side"]] = metric["value"]
    complete = [pair for pair in by_pair.values() if len(pair) == 2]
    if not complete:
        return {"unit": spec["unit"], "missing": True}
    values = {side: [pair[side] for pair in complete] for side in SIDES}
    wins = sum((c < p) if lower else (c > p)
               for p, c in zip(values["parent"], values["change"]))
    out = {"unit": spec["unit"], "better": spec["better"],
           "bound": spec.get("bound")}
    out.update({side: quartiles(values[side]) for side in SIDES})
    out["parent_iqr"] = out["parent"]["q3"] - out["parent"]["q1"]
    out["change_wins"] = wins
    out["pairs"] = len(values["parent"])
    parent_median = out["parent"]["median"]
    out["relative_change"] = (out["change"]["median"] / parent_median - 1.0
                              if parent_median else None)
    return out


def machine() -> dict:
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {
        "cores": cores,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "bytecode": ("not written (PYTHONDONTWRITEBYTECODE)"
                     if os.environ.get("PYTHONDONTWRITEBYTECODE")
                     else "written to __pycache__"),
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent source tree")
    parser.add_argument("--change", required=True, help="changed source tree")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as handle:
        specs = json.load(handle)["end_to_end"]

    report = {"machine": machine(), "pairs": args.pairs,
              "seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    all_correct = True
    for workload in args.workload:
        runs = []
        for pair in range(args.pairs):
            seed = args.seeds[pair % len(args.seeds)]
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                result = run_once(trees[side], workload, seed, args.seconds)
                runs.append({"pair": pair, "side": side, "position": position,
                             "seed": seed, "result": result})
                all_correct &= result["correct"] is True
                print(f"{workload} pair {pair} {side}: correct "
                      f"{result['correct']}", file=sys.stderr, flush=True)
        report["workloads"][workload] = {
            "metrics": {spec["name"]: compare(spec, runs) for spec in specs},
            "runs": [{"pair": r["pair"], "side": r["side"],
                      "position": r["position"], "seed": r["seed"],
                      **{key: r["result"].get(key) for key in (
                          "correct", "attempted", "failed", "returncode",
                          "error")},
                      "metrics": {name: m["value"] for name, m
                                  in r["result"]["metrics"].items()}}
                     for r in runs],
        }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    print("workload  metric       parent median [q1, q3]      "
          "change median [q1, q3]      change  wins")
    for workload, body in report["workloads"].items():
        for name, m in body["metrics"].items():
            if m.get("missing"):
                print(f"{workload:9} {name:12} missing")
                continue
            p, c = m["parent"], m["change"]
            rel = ("" if m["relative_change"] is None
                   else f"{m['relative_change']:+.1%}")
            print(f"{workload:9} {name:12} {p['median']:.4f} "
                  f"[{p['q1']:.4f}, {p['q3']:.4f}]   {c['median']:.4f} "
                  f"[{c['q1']:.4f}, {c['q3']:.4f}]   {rel:>7} "
                  f"{m['change_wins']}/{m['pairs']}")
    print(f"all runs correct: {all_correct}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
