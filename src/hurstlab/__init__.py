"""hurstlab: Hurst exponent estimation and downfall-regime analysis.

Estimators (rescaled range and detrended fluctuation analysis), the
V-statistic cycle test, sliding-window traces, downfall extraction with
the progressive kurtosis scan, and seeded synthetic generators for
validation against known ground truth.
"""
from .dfa import (
    DfaConfig,
    FitTarget,
    default_box_sizes,
    dfa_fluctuation,
    estimate_hurst_dfa,
)
from .downfalls import (
    CriticalLevel,
    Downfall,
    KurtosisMode,
    KurtosisScan,
    Regime,
    classify_episode,
    critical_cutoff,
    excess_kurtosis,
    extract_downfalls,
    progressive_kurtosis,
    rank_size_points,
)
from .regression import EstimatorKind, PowerLawFit, ScalingCurve, fit_loglog
from .rescaled_range import (
    HurstEstimate,
    PartitionPlan,
    PartitionPolicy,
    Persistence,
    RSSegmentStats,
    StdMode,
    autocorrelation_from_h,
    build_partition_plan,
    classify_persistence,
    estimate_hurst_rs,
    fractal_dimension,
    rs_at_scale,
    segment_stats,
)
from .rolling import (
    ClassifierThresholds,
    MarketClass,
    MarketClassKind,
    RollingConfig,
    RollingTrace,
    TraceSummary,
    classify_market,
    summarize,
    sweep,
)
from .series import (
    CsvConfig,
    PriceSeries,
    ReturnSeries,
    Transform,
    log_returns,
    parse_price_csv,
    parse_return_csv,
    serialize_price_csv,
    transform_returns,
)
from .synthetic import (
    GeneratorKind,
    GeneratorSpec,
    fbm,
    fgn,
    fgn_autocovariance,
    generate,
    random_walk_prices,
    white_noise,
)
from .vstat import Trend, VStatCurve, v_statistic

__version__ = "0.1.0"
