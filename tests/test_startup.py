"""Start-up of a fresh process: `import hurstlab` loads no numpy and
resolves its exports on first use, and the CLI module starts numpy with
OpenBLAS single-threaded unless the user has chosen a thread count and
loads no dataclasses. The program entry, `main()` with no arguments,
freezes the objects the imports made; a call with arguments does not.

Each case runs in a new interpreter with OPENBLAS_NUM_THREADS removed
from its environment, since this process has long imported numpy.
"""
import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

#: Every name hurstlab exported by eager import, by defining submodule.
EXPORTS = {
    "dfa": ["DfaConfig", "default_box_sizes", "dfa_fluctuation",
            "estimate_hurst_dfa"],
    "downfalls": ["CriticalLevel", "Downfall", "KurtosisScan", "Regime",
                  "classify_episode", "critical_cutoff", "excess_kurtosis",
                  "extract_downfalls", "progressive_kurtosis",
                  "rank_size_points"],
    "regression": ["EstimatorKind", "PowerLawFit", "ScalingCurve",
                   "fit_loglog"],
    "rescaled_range": ["HurstEstimate", "PartitionPlan", "PartitionPolicy",
                       "Persistence", "RSSegmentStats", "StdMode",
                       "autocorrelation_from_h", "build_partition_plan",
                       "classify_persistence", "estimate_hurst_rs",
                       "fractal_dimension", "rs_at_scale", "segment_stats"],
    "rolling": ["MarketClass", "MarketClassKind", "RollingConfig",
                "RollingTrace", "TraceSummary", "classify_market",
                "summarize", "sweep"],
    "series": ["CsvConfig", "PriceSeries", "ReturnSeries", "Transform",
               "log_returns", "parse_price_csv", "parse_return_csv",
               "serialize_price_csv", "transform_returns"],
    "synthetic": ["GeneratorKind", "GeneratorSpec", "fbm", "fgn",
                  "fgn_autocovariance", "generate", "random_walk_prices",
                  "white_noise"],
    "vstat": ["Trend", "VStatCurve", "v_statistic"],
}


def run_python(code, **env):
    """The JSON that `code` prints last, run in a fresh interpreter."""
    child = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, child.get("PYTHONPATH")) if p)
    child.update(env)
    proc = subprocess.run([sys.executable, "-c", code], env=child,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_hurstlab_loads_no_numpy():
    assert run_python(
        "import json, sys, hurstlab\n"
        "print(json.dumps([hurstlab.__version__, 'numpy' in sys.modules,"
        " sorted(m for m in sys.modules if m.startswith('hurstlab'))]))"
    ) == ["0.1.0", False, ["hurstlab"]]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts threads through Linux /proc")
def test_cli_import_starts_no_blas_threads():
    assert run_python(
        "import json, os, sys, hurstlab.cli\n"
        "print(json.dumps([len(os.listdir('/proc/self/task')),"
        " os.environ.get('OPENBLAS_NUM_THREADS'), 'numpy' in sys.modules]))"
    ) == [1, "1", True]


def test_cli_import_keeps_a_preset_thread_count():
    assert run_python(
        "import json, os, hurstlab.cli\n"
        "print(json.dumps(os.environ['OPENBLAS_NUM_THREADS']))",
        OPENBLAS_NUM_THREADS="2") == "2"


def test_exports_resolve_to_the_submodule_objects():
    assert run_python(
        "import importlib, json, hurstlab\n"
        f"exports = {EXPORTS!r}\n"
        "listed = dir(hurstlab)\n"
        "print(json.dumps(sorted(\n"
        "    name for module, names in exports.items() for name in names\n"
        "    if name not in listed or getattr(hurstlab, name) is not getattr(\n"
        "        importlib.import_module(f'hurstlab.{module}'), name))))"
    ) == []


def test_unknown_attribute_raises_attribute_error():
    import hurstlab

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        hurstlab.nope


def test_cli_import_loads_no_dataclasses():
    # The records are plain classes; numpy does not import dataclasses
    # either, so the module and its code generation stay out of start-up.
    assert run_python(
        "import json, sys, hurstlab.cli\n"
        "print(json.dumps('dataclasses' in sys.modules))") is False


FREEZE = ("import gc, json, sys\n"
          "import hurstlab.cli\n"
          "before = gc.get_freeze_count()\n"
          "sys.argv = ['hurstlab', 'synth', '--n', '5']\n"
          "code = hurstlab.cli.main({})\n"
          "print()\n"
          "print(json.dumps([before, code, gc.get_freeze_count() > 0]))")


def test_program_entry_freezes_the_import_time_heap():
    assert run_python(FREEZE.format("")) == [0, 0, True]


def test_in_process_call_keeps_the_heap_unfrozen():
    assert run_python(FREEZE.format("sys.argv[1:]")) == [0, 0, False]
