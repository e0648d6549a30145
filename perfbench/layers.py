"""In-process pass over one workload, optionally traced layer by layer.

    python3 perfbench/layers.py '<json spec>'

The spec names the source tree to import hurstlab from, whether to trace,
and the CLI invocations as [argv, stdout_path] pairs. Each invocation
runs through ``hurstlab.cli.main`` in this process with stdout captured
and written to its path. The last line printed is a JSON object with the
pass's wall time, exit codes and, when traced, per-name span totals and
counters.

Tracing wraps the module-level public names listed in LAYERS. A name
imported into several modules (``from .rolling import sweep``) is
replaced wherever it is bound, so calls through any module are seen.
Nothing under src/ is modified. Each pass runs in a fresh process, so
module caches (the fGn Cholesky factor) start cold as they do for the CLI.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import sys
import time
import traceback
from collections import defaultdict

#: module -> public names wrapped as spans. Order does not matter.
LAYERS = {
    "_kernels": ("rs_segment_sums", "dfa_box_fsq"),
    "rescaled_range": ("build_partition_plan", "estimate_hurst_rs",
                       "rs_scaling_curve", "rs_at_scale_with_diagnostics",
                       "estimate_from_curve"),
    "regression": ("fit_loglog", "ols_line"),
    "rolling": ("sweep", "estimate_window", "summarize", "classify_market"),
    "dfa": ("default_box_sizes", "estimate_hurst_dfa", "dfa_scaling_curve",
            "estimate_dfa_from_curve", "profile"),
    "series": ("parse_price_csv", "parse_return_csv", "log_returns",
               "transform_returns"),
    "cli": ("main",),
    "vstat": ("v_statistic",),
    "downfalls": ("extract_downfalls", "progressive_kurtosis",
                  "critical_cutoff", "rank_size_points", "classify_episode"),
    "synthetic": ("generate",),
}


def _segment_bytes(args):
    x, n = args[0], args[1]
    return (x.size // n) * n * 8


#: span name -> (counter name, f(args, result) -> increment)
COUNTERS = {
    "_kernels.rs_segment_sums": ("rs_bytes", lambda a, r: _segment_bytes(a)),
    "_kernels.dfa_box_fsq": ("dfa_bytes", lambda a, r: _segment_bytes(a)),
    "rolling.sweep": ("gaps", lambda a, r: sum(m.is_gap for m in r.measurements)),
    "series.parse_price_csv": ("rows", lambda a, r: len(r)),
    "series.parse_return_csv": ("rows", lambda a, r: len(r)),
    "downfalls.extract_downfalls": ("episodes", lambda a, r: len(r)),
    "downfalls.progressive_kurtosis": (
        "scan_subsets", lambda a, r: len(r.entries) + len(r.skipped_subsets)),
    "synthetic.generate": ("values", lambda a, r: len(r)),
}


class Tracer:
    """Per-name call count, inclusive time and self time of wrapped calls.

    Self time is a span's duration minus the durations of the spans it
    directly encloses. Totals are kept in memory and returned at the end.
    """

    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counters = defaultdict(int)
        self._children = []  # child time accumulated per open span

    def wrap(self, name, fn):
        stats = self.spans[name]
        children = self._children
        counters = self.counters
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                inner = children.pop()
                if children:
                    children[-1] += took
                stats[0] += 1
                stats[1] += took
                stats[2] += took - inner
            if counter is not None:
                counters[counter[0]] += counter[1](args, result)
            return result

        return span

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "hurstlab" or n.startswith("hurstlab.")]
        for module_name, names in LAYERS.items():
            module = importlib.import_module(f"hurstlab.{module_name}")
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    continue
                wrapped = self.wrap(f"{module_name}.{name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)


def run_pass(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    import hurstlab.cli  # imported before timing starts

    tracer = Tracer() if spec["traced"] else None
    if tracer is not None:
        tracer.install()
    main = hurstlab.cli.main
    codes, errors, wall, stdout_bytes = [], [], 0.0, 0
    for argv, path in spec["invocations"]:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except Exception:  # a crash is reported as a failed invocation
            code = 1
            err.write(traceback.format_exc())
        wall += time.perf_counter() - start
        data = out.getvalue().encode()
        stdout_bytes += len(data)
        with open(path, "wb") as handle:
            handle.write(data)
        codes.append(code)
        errors.append(err.getvalue())
    result = {"wall_s": wall, "codes": codes, "stderr": errors,
              "stdout_bytes": stdout_bytes}
    if tracer is not None:
        result["spans"] = {k: v for k, v in tracer.spans.items()}
        result["counters"] = dict(tracer.counters)
    return result


if __name__ == "__main__":
    print(json.dumps(run_pass(json.loads(sys.argv[1]))))
