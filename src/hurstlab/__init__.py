"""hurstlab: Hurst exponent estimation and downfall-regime analysis.

Estimators (rescaled range and detrended fluctuation analysis), the
V-statistic cycle test, sliding-window traces, downfall extraction with
the progressive kurtosis scan, and seeded synthetic generators for
validation against known ground truth.
"""
from importlib import import_module

__version__ = "0.1.0"

#: Submodule -> the names hurstlab exports from it. Each resolves on first
#: use (PEP 562), so `import hurstlab` imports no submodule and no numpy.
_EXPORTS = {
    "dfa": ("DfaConfig", "default_box_sizes", "dfa_fluctuation",
            "estimate_hurst_dfa"),
    "downfalls": ("CriticalLevel", "Downfall", "KurtosisScan", "Regime",
                  "classify_episode", "critical_cutoff", "excess_kurtosis",
                  "extract_downfalls", "progressive_kurtosis",
                  "rank_size_points"),
    "regression": ("EstimatorKind", "PowerLawFit", "ScalingCurve",
                   "fit_loglog"),
    "rescaled_range": ("HurstEstimate", "PartitionPlan", "PartitionPolicy",
                       "Persistence", "RSSegmentStats", "StdMode",
                       "autocorrelation_from_h", "build_partition_plan",
                       "classify_persistence", "estimate_hurst_rs",
                       "fractal_dimension", "rs_at_scale", "segment_stats"),
    "rolling": ("MarketClass", "MarketClassKind", "RollingConfig",
                "RollingTrace", "TraceSummary", "classify_market",
                "summarize", "sweep"),
    "series": ("CsvConfig", "PriceSeries", "ReturnSeries", "Transform",
               "log_returns", "parse_price_csv", "parse_return_csv",
               "serialize_price_csv", "transform_returns"),
    "synthetic": ("GeneratorKind", "GeneratorSpec", "fbm", "fgn",
                  "fgn_autocovariance", "generate", "random_walk_prices",
                  "white_noise"),
    "vstat": ("Trend", "VStatCurve", "v_statistic"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items()
           for name in names}
__all__ = sorted(_ORIGIN)


def __getattr__(name):
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_ORIGIN[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_ORIGIN})
