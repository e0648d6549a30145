"""hurstlab benchmark: fresh CLI processes on seeded inputs, one client.

    python3 perfbench/run.py --workload rolling --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; hurstlab is imported from its
src/ directory. Each run generates its inputs from --seed inside
.perfbench_work/, runs the workload's `python -m hurstlab.cli ...`
invocations one after another as a closed loop (the next process starts
when the previous one exits), checks every output against the plain
numpy oracles in checks.py, and prints one JSON result as its last line.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: wall and CPU
time of a pass over the workload, each invocation at its fastest, the
median peak RSS of a pass, and the median import time of a fresh
process. --trace 1 reports the per-layer metrics instead: in-process
passes (layers.py) alternate untraced and traced, and the traced ones
give call counts and self times per module. See README.md for the
workloads and for which layer metric should move which end-to-end metric.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

PRICE_DAYS = 10_000
FGN_N = 4096
#: Fewest set-up samples per run (one is taken after every pass).
SETUP_SAMPLES = 7
#: Metrics reported as the sum, over the workload's invocations, of each
#: invocation's fastest run in the pass loop, rather than as a median. Host
#: load on the reference machine only ever slows a process, in bursts of
#: seconds and in spells of minutes, so each invocation's fastest run
#: repeats across runs more closely than a median of passes does
#: (README.md, "Steadiness").
BEST_OF = ("wall_s", "cpu_s")
IMPORTTIME_SAMPLES = 3
#: No pass starts that would end later than this into a run (limit: 180 s).
RUN_BUDGET_S = 150.0
PROCESS_TIMEOUT_S = 120.0


@dataclass
class Invocation:
    argv: list[str]            # arguments after `python -m hurstlab.cli`
    stdout: str                # where its stdout goes
    check: object              # f(stdout bytes, Context) -> list of problems


@dataclass
class Context:
    seed: int
    prices: checks.Series
    fgn: checks.Series | None = None
    inputs: dict = field(default_factory=dict)  # file name -> sha256


def workload_invocations(name: str, work: str, seed: int) -> list[Invocation]:
    prices = os.path.join(work, "prices.csv")
    fgn = os.path.join(work, "fgn.csv")

    def out(i):
        return os.path.join(work, f"out{i}")

    if name == "rolling":
        return [
            Invocation(["rolling", prices, "--window", "250", "--lag", "1"], out(0),
                       lambda b, c: checks.check_rolling_json(b, c.prices, 250, 1, c.seed)),
            Invocation(["rolling", prices, "--estimator", "dfa", "--window", "256",
                        "--lag", "5", "--format", "table"], out(1),
                       lambda b, c: checks.check_rolling_table(b, c.prices, 256, 5, c.seed)),
        ]
    if name == "one-shot":
        def target(est):
            return checks.VALIDATE_H, checks.VALIDATE_TOL[est]
        return [
            Invocation(["hurst", prices], out(0),
                       lambda b, c: checks.check_hurst(b, c.prices.log_returns(), "rs")),
            Invocation(["dfa", prices], out(1),
                       lambda b, c: checks.check_hurst(b, c.prices.log_returns(), "dfa")),
            Invocation(["vstat", prices], out(2),
                       lambda b, c: checks.check_vstat(b, c.prices.log_returns())),
            Invocation(["downfalls", prices], out(3),
                       lambda b, c: checks.check_downfalls(b, c.prices)),
            # The paper's ground-truth loop; checked in this order, so F is
            # parsed before the estimates made from it.
            Invocation(["synth", "--kind", "fgn", "--n", str(FGN_N), "--h",
                        str(checks.VALIDATE_H), "--seed", str(seed)], fgn, check_fgn),
            Invocation(["hurst", fgn, "--returns"], out(5),
                       lambda b, c: checks.check_hurst(b, c.fgn.values, "rs", target("rs"))),
            Invocation(["dfa", fgn, "--returns"], out(6),
                       lambda b, c: checks.check_hurst(b, c.fgn.values, "dfa", target("dfa"))),
        ]
    raise SystemExit(f"unknown workload {name!r}")


WORKLOADS = ("rolling", "one-shot")


def check_fgn(stdout: bytes, ctx: Context) -> list[str]:
    ctx.inputs["fgn.csv"] = hashlib.sha256(stdout).hexdigest()
    ctx.fgn = checks.Series(stdout.decode())
    return ctx.fgn.problems(["date", "value"], FGN_N, positive=False)


# -- processes -----------------------------------------------------------------

@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], stdout_path: str) -> Proc:
    """Run argv to completion; wall from spawn to exit, rusage of the child."""
    err_path = stdout_path + ".err"
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                cwd=ROOT, env=child_env())
        timer = threading.Timer(PROCESS_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the child, then re-raise
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, encoding="utf-8", errors="replace") as handle:
        stderr = handle.read()
    return Proc(code=proc.returncode, wall_s=wall,
                cpu_s=usage.ru_utime + usage.ru_stime,
                rss_mb=usage.ru_maxrss * 1024 / 1e6, stderr=stderr)


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "hurstlab.cli", *args]


def stderr_problems(code: int, stderr: str) -> list[str]:
    out = []
    if code != 0:
        out.append(f"exit code {code}")
    if "Traceback" in stderr:
        out.append("traceback on stderr")
    for line in stderr.splitlines():
        try:
            json.loads(line)
        except ValueError:
            out.append(f"non-JSON stderr: {line[:200]}")
            break
    return out


def sha256_file(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


# -- the run -------------------------------------------------------------------

class Outcomes:
    """Counts attempted and failed operations; keeps the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {'; '.join(problems[:3])}")
        return not problems


class Reference:
    """The first pass's outputs: each later pass must reproduce them byte
    for byte, so the (expensive) content checks run once per invocation."""

    def __init__(self, invocations, ctx):
        self.invocations = invocations
        self.ctx = ctx
        self.digests = None
        self.content_problems = None

    def _check(self, inv) -> list[str]:
        try:
            return inv.check(read(inv.stdout), self.ctx)
        except Exception as exc:  # malformed output the checker cannot walk
            return [f"check raised {type(exc).__name__}: {exc}"]

    def judge(self, outcomes, label, codes, stderrs) -> None:
        digests = [sha256_file(inv.stdout) for inv in self.invocations]
        if self.digests is None:
            self.digests = digests
            self.content_problems = [self._check(inv) for inv in self.invocations]
        for i, inv in enumerate(self.invocations):
            problems = stderr_problems(codes[i], stderrs[i])
            if digests[i] != self.digests[i]:
                problems.append("stdout differs from the first repetition")
            problems += self.content_problems[i]
            outcomes.record(f"{label} {' '.join(inv.argv[:1])}", problems)


def median(values):
    return statistics.median(values) if values else 0.0


def best_of(passes: list[list[float]]) -> float:
    """Sum over invocations of each one's least value across passes."""
    return sum(min(column) for column in zip(*passes)) if passes else 0.0


def end_to_end(invocations, reference, outcomes, seconds, t0, work) -> dict:
    """Passes until the next one would end after `seconds`, each followed
    by one set-up sample, so that set-up is sampled across the whole run.
    Caches are already warm (a set-up import filled __pycache__), so every
    pass is timed; the first is also the reference for the output checks."""
    samples = {"wall_s": [], "cpu_s": [], "peak_rss_mb": [], "setup_s": []}
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        procs = [spawn(cli(*inv.argv), inv.stdout) for inv in invocations]
        reference.judge(outcomes, f"pass {len(samples['wall_s'])}",
                        [p.code for p in procs], [p.stderr for p in procs])
        samples["wall_s"].append([p.wall_s for p in procs])
        samples["cpu_s"].append([p.cpu_s for p in procs])
        samples["peak_rss_mb"].append(max(p.rss_mb for p in procs))
        samples["setup_s"] += setup_times(work, outcomes, 1)
        now = time.perf_counter()
        took = now - begin
        if now - start + took > seconds or now - t0 + took > RUN_BUDGET_S:
            break
    samples["setup_s"] += setup_times(work, outcomes,
                                      SETUP_SAMPLES - len(samples["setup_s"]))
    return samples


def setup_times(work, outcomes, count) -> list[float]:
    """Wall times of `count` fresh processes that only import hurstlab.cli."""
    times = []
    for _ in range(count):
        p = spawn([sys.executable, "-c", "import hurstlab.cli"], os.path.join(work, "setup"))
        if outcomes.record("setup", stderr_problems(p.code, p.stderr)):
            times.append(p.wall_s)
    return times


def layer_pass(invocations, work, traced, tag) -> tuple[dict | None, Proc]:
    spec = {"src": SRC, "traced": traced,
            "invocations": [[inv.argv, inv.stdout] for inv in invocations]}
    out = os.path.join(work, f"layers-{tag}")
    p = spawn([sys.executable, os.path.join(HERE, "layers.py"), json.dumps(spec)], out)
    try:
        return json.loads(read(out).decode().splitlines()[-1]), p
    except (ValueError, IndexError):
        return None, p


def traced(invocations, reference, outcomes, seconds, t0, work) -> tuple[dict, dict]:
    """Alternate untraced and traced in-process passes for `seconds`."""
    plain, spans = [], []
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        for is_traced in (False, True):
            result, p = layer_pass(invocations, work, is_traced, len(plain) + len(spans))
            if result is None:
                outcomes.record("layer pass", stderr_problems(p.code, p.stderr)
                                or ["no result"])
                continue
            reference.judge(outcomes, "traced" if is_traced else "in-process",
                            result["codes"], result["stderr"])
            (spans if is_traced else plain).append(result)
        now = time.perf_counter()
        if now - start + (now - begin) > seconds or now - t0 + (now - begin) > RUN_BUDGET_S:
            break
    metrics = layer_metrics(spans, outcomes)
    if plain and spans:  # fastest against fastest, as for wall_s
        metrics["trace.overhead_s"] = (min(r["wall_s"] for r in spans)
                                       - min(r["wall_s"] for r in plain))
    metrics.update(import_times(work, outcomes))
    metrics.update(bench_kernels(work, outcomes))
    return metrics, {"passes": {"untraced": len(plain), "traced": len(spans)}}


def layer_metrics(runs: list[dict], outcomes) -> dict:
    """Per-layer metrics: counts from one traced pass (they must repeat
    exactly across passes), times as medians over passes."""
    if not runs:
        return {}
    keys = [({k: v[0] for k, v in r["spans"].items()}, r["counters"]) for r in runs]
    outcomes.record("trace counts", [] if all(k == keys[0] for k in keys)
                    else ["span counts differ between traced passes"])
    calls, counters = keys[0]

    def total(*names):
        return median([sum(r["spans"].get(n, [0, 0.0, 0.0])[1] for n in names) for r in runs])

    def self_time(prefix):
        return median([sum(v[2] for k, v in r["spans"].items() if k.startswith(prefix + "."))
                       for r in runs])

    def per(value, count, scale=1e6):
        return scale * value / count if count else 0.0

    m = {}
    for kernel, name in (("rs", "rs_segment_sums"), ("dfa", "dfa_box_fsq")):
        n = calls.get(f"_kernels.{name}", 0)
        seconds = total(f"_kernels.{name}")
        m[f"kernels.{kernel}_calls"] = n
        m[f"kernels.{kernel}_s"] = seconds
        m[f"kernels.{kernel}_us_per_call"] = per(seconds, n)
        m[f"kernels.{kernel}_bytes_computed"] = counters.get(f"{kernel}_bytes", 0)
    m["rescaled_range.plan_builds"] = calls.get("rescaled_range.build_partition_plan", 0)
    m["rescaled_range.plan_s"] = total("rescaled_range.build_partition_plan")
    m["rescaled_range.estimates"] = calls.get("rescaled_range.estimate_hurst_rs", 0)
    m["rescaled_range.self_s"] = self_time("rescaled_range")
    m["regression.fits"] = calls.get("regression.ols_line", 0)
    m["regression.fit_s"] = self_time("regression")
    windows = calls.get("rolling.estimate_window", 0)
    m["rolling.windows"] = windows
    m["rolling.gaps"] = counters.get("gaps", 0)
    m["rolling.us_per_window"] = per(total("rolling.sweep"), windows)
    m["rolling.sweep_self_s"] = median(
        [sum(r["spans"].get(n, [0, 0.0, 0.0])[2]
             for n in ("rolling.sweep", "rolling.estimate_window")) for r in runs])
    m["rolling.summary_s"] = total("rolling.summarize", "rolling.classify_market")
    m["dfa.plan_builds"] = calls.get("dfa.default_box_sizes", 0)
    m["dfa.estimates"] = calls.get("dfa.estimate_hurst_dfa", 0)
    m["dfa.self_s"] = self_time("dfa")
    rows = counters.get("rows", 0)
    parse = total("series.parse_price_csv", "series.parse_return_csv")
    m["series.rows"] = rows
    m["series.parse_s"] = parse
    m["series.parse_us_per_row"] = per(parse, rows)
    m["series.transform_s"] = total("series.log_returns", "series.transform_returns")
    m["cli.self_s"] = self_time("cli")
    m["cli.stdout_bytes"] = runs[0]["stdout_bytes"]
    m["vstat.s"] = total("vstat.v_statistic")
    m["downfalls.extract_s"] = total("downfalls.extract_downfalls")
    m["downfalls.episodes"] = counters.get("episodes", 0)
    m["downfalls.scan_s"] = total("downfalls.progressive_kurtosis", "downfalls.critical_cutoff",
                                  "downfalls.rank_size_points", "downfalls.classify_episode")
    m["downfalls.scan_subsets"] = counters.get("scan_subsets", 0)
    m["synthetic.generate_s"] = total("synthetic.generate")
    m["synthetic.values"] = counters.get("values", 0)
    return m


_IMPORT_LINE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$")


def import_times(work, outcomes) -> dict:
    """Cumulative import time of hurstlab.cli and of numpy, `-X importtime`."""
    samples = {"cli.import_s": [], "cli.import_numpy_s": []}
    for i in range(IMPORTTIME_SAMPLES):
        p = spawn([sys.executable, "-X", "importtime", "-c", "import hurstlab.cli"],
                  os.path.join(work, "importtime"))
        found = {}
        for line in p.stderr.splitlines():
            match = _IMPORT_LINE.match(line)
            if match:
                found[match.group(2)] = int(match.group(1)) / 1e6
        problems = [] if p.code == 0 else [f"exit code {p.code}"]
        if "hurstlab.cli" not in found or "numpy" not in found:
            problems.append("importtime output lacks hurstlab.cli or numpy")
        if outcomes.record(f"importtime {i}", problems):
            samples["cli.import_s"].append(found["hurstlab.cli"])
            samples["cli.import_numpy_s"].append(found["numpy"])
    return {k: median(v) for k, v in samples.items()}


_KERNEL_LINE = re.compile(r"^(rs|dfa)\s+\d+ evals \| numpy .*?\(\s*([\d.]+) us/eval\)")


def bench_kernels(work, outcomes) -> dict:
    """µs/eval from benchmarks/bench_kernels.py, to set beside the traced
    kernels.*_us_per_call (kernels timed alone vs. inside the sweep)."""
    p = spawn([sys.executable, os.path.join(ROOT, "benchmarks", "bench_kernels.py"),
               "--windows", "300", "--repeat", "3"], os.path.join(work, "bench_kernels"))
    found = {}
    for line in read(os.path.join(work, "bench_kernels")).decode().splitlines():
        match = _KERNEL_LINE.match(line)
        if match:
            found[match.group(1)] = float(match.group(2))
    problems = stderr_problems(p.code, p.stderr)
    if set(found) != {"rs", "dfa"}:
        problems.append("bench_kernels.py printed no rs/dfa us/eval lines")
    outcomes.record("bench_kernels", problems)
    return {f"bench_kernels.{k}_us_per_eval": v for k, v in found.items()}


# -- environment -----------------------------------------------------------------

_PROBE = r"""
import ctypes, json, os, sys
import numpy
import hurstlab, hurstlab._kernels as k
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
with open("/proc/self/maps") as maps:
    libs = {line.split()[-1] for line in maps if "blas" in line.lower() and ".so" in line}
for lib in sorted(libs):
    try:
        handle = ctypes.CDLL(lib)
    except OSError:
        continue
    for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
        fn = getattr(handle, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
            break
print(json.dumps({
    "cores": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
    "python": sys.version.split()[0], "numpy": numpy.__version__,
    "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
    "kernel_path": "numba" if getattr(k, "HAVE_NUMBA", False) else "numpy",
    "hurstlab": os.path.dirname(hurstlab.__file__),
}))
"""


def environment(work) -> dict:
    out = os.path.join(work, "env")
    p = spawn([sys.executable, "-c", _PROBE], out)
    if p.code != 0:
        raise RuntimeError(f"environment probe failed: {p.stderr.strip()[-500:]}")
    env = json.loads(read(out))
    if os.path.realpath(env["hurstlab"]) != os.path.realpath(os.path.join(SRC, "hurstlab")):
        raise RuntimeError(f"hurstlab imported from {env['hurstlab']}, not {SRC}")
    return env


# -- main ------------------------------------------------------------------------

def load_metric_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


def prepare(work, seed) -> Context:
    """Generate the price input with the CLI's own generator and check it."""
    path = os.path.join(work, "prices.csv")
    p = spawn(cli("synth", "--kind", "prices", "--n", str(PRICE_DAYS),
                  "--seed", str(seed), "--vol", "0.01"), path)
    problems = stderr_problems(p.code, p.stderr)
    if problems:
        raise RuntimeError(f"input generation failed: {problems}")
    ctx = Context(seed=seed, prices=checks.Series(read(path).decode()))
    problems = ctx.prices.problems(["date", "close"], PRICE_DAYS, positive=True)
    if problems:
        raise RuntimeError(f"generated prices are invalid: {problems}")
    ctx.inputs["prices.csv"] = sha256_file(path)
    return ctx


def run(args, work) -> int:
    t0 = time.perf_counter()
    spec = load_metric_spec()
    seed = args.seed % 2 ** 32
    env = environment(work)
    ctx = prepare(work, seed)
    invocations = workload_invocations(args.workload, work, seed)
    reference = Reference(invocations, ctx)
    outcomes = Outcomes()
    # Fills __pycache__ so that neither set-up nor passes time compilation.
    spawn([sys.executable, "-c", "import hurstlab.cli"], os.path.join(work, "setup"))
    breakdown = []
    if args.trace:
        metrics, detail = traced(invocations, reference, outcomes, args.seconds, t0, work)
        wanted = spec["per_layer"]
    else:
        samples = end_to_end(invocations, reference, outcomes, args.seconds, t0, work)
        metrics = {k: best_of(v) if k in BEST_OF else median(v) for k, v in samples.items()}
        breakdown = [f"invocation {' '.join(os.path.basename(a) for a in inv.argv)}: "
                     f"fastest wall {min(walls):.4f} s, least cpu {min(cpus):.4f} s"
                     for inv, walls, cpus in zip(invocations, zip(*samples["wall_s"]),
                                                 zip(*samples["cpu_s"]))]
        for k in BEST_OF:  # the detail lines describe whole passes
            samples[k] = [sum(per_invocation) for per_invocation in samples[k]]
        detail = {k: {"n": len(v), "min": min(v, default=0.0), "median": median(v),
                      "max": max(v, default=0.0)} for k, v in samples.items()}
        wanted = spec["end_to_end"]
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        outcomes.record("metrics", [f"not measured: {missing}"])

    print("env " + json.dumps(env, sort_keys=True))
    print("inputs " + json.dumps(ctx.inputs, sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    for line in breakdown:
        print(line)
    for name, unit in wanted.items():
        extra = detail.get(name)
        how = "per-invocation fastest over" if name in BEST_OF else "median of"
        note = (f"  ({how} {extra['n']}; min {extra['min']:.4f}, "
                f"median {extra['median']:.4f}, max {extra['max']:.4f})" if extra else "")
        print(f"{name} = {metrics.get(name, 0.0):.6g} {unit}{note}")
    print(f"fail_frac = {outcomes.failed / max(outcomes.attempted, 1):.6g} fraction "
          f"(failed {outcomes.failed} of {outcomes.attempted} attempted)")
    for problem in outcomes.problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": outcomes.failed == 0 and not missing,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in wanted.items()},
    }))
    return 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "hurstlab", "cli.py")):
        print(f"perfbench: no hurstlab sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        return run(args, work)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
