import datetime as dt

import numpy as np
import pytest

from hurstlab.dfa import FitTarget
from hurstlab.errors import (
    ComputationError,
    SeriesTooShortError,
    TraceTooShortError,
)
from hurstlab.rescaled_range import EstimatorKind, PartitionPolicy, StdMode
from hurstlab.rolling import (
    _CHUNK_ROWS,
    RollingConfig,
    _scheme,
    classify_market,
    estimate_window,
    summarize,
    sweep,
)
from hurstlab.rolling import MarketClassKind
from hurstlab.series import ReturnSeries, Transform
from hurstlab.synthetic import SYNTHETIC_EPOCH, fgn, white_noise


def make_returns(values):
    values = np.asarray(values, dtype=float)
    dates = tuple(SYNTHETIC_EPOCH + dt.timedelta(days=i + 1)
                  for i in range(values.size))
    return ReturnSeries(source_symbol="T", transform=Transform.RAW,
                        dates=dates, values=values)


def test_single_window_boundary():
    trace = sweep(make_returns(white_noise(250, seed=1)),
                  RollingConfig(window=250, lag=5))
    assert trace.count == 1
    assert trace.measurements[0].end_date == SYNTHETIC_EPOCH + dt.timedelta(days=250)


def test_count_260_returns():
    trace = sweep(make_returns(white_noise(260, seed=2)),
                  RollingConfig(window=250, lag=5))
    assert trace.count == 3


def test_count_formula_random_triples():
    rng = np.random.Generator(np.random.PCG64(99))
    windows = [64, 96, 128, 192, 250, 256, 500, 512]
    for _ in range(200):
        window = int(rng.choice(windows))
        lag = int(rng.integers(1, 50))
        length = window + int(rng.integers(0, 400))
        config = RollingConfig(window=window, lag=lag)
        trace = sweep(make_returns(rng.normal(size=length)), config)
        assert trace.count == (length - window) // lag + 1, (length, window, lag)


def test_window_measurements_match_standalone_bit_for_bit():
    rng = np.random.Generator(np.random.PCG64(41))
    values = rng.normal(size=1000)
    config = RollingConfig(window=250, lag=20)
    trace = sweep(make_returns(values), config)
    for i in (0, 7, len(trace.measurements) - 1):
        start = i * config.lag
        standalone = estimate_window(values[start:start + 250], config)
        assert trace.measurements[i].h == standalone.h
        assert trace.measurements[i].r_squared == standalone.r_squared


def reference_trace(values, config):
    """The per-window loop over the public single-window API."""
    entries = []
    for start in range(0, values.size - config.window + 1, config.lag):
        try:
            est = estimate_window(values[start:start + config.window], config)
        except ComputationError as exc:
            entries.append((None, None, f"{type(exc).__name__}: {exc}"))
        else:
            entries.append((est.h, est.r_squared, ""))
    return entries


def with_constant_block(length, seed):
    # Windows inside the block, or ending just past it (every small-scale
    # segment constant), are gaps; others overlapping it skip segments.
    values = white_noise(length, seed=seed).copy()
    values[400:700] = 1.5
    return values


DFA = EstimatorKind.DFA


@pytest.mark.parametrize("length, config", [
    (1100, RollingConfig(window=250, lag=1)),
    (2000, RollingConfig(window=250, lag=7)),
    (1400, RollingConfig(window=500, lag=3)),
    (900, RollingConfig(window=250, lag=2, std_mode=StdMode.SAMPLE)),
    (1200, RollingConfig(window=256, lag=1, estimator=DFA)),
    (1200, RollingConfig(window=256, lag=3, estimator=DFA,
                         dfa_fit_target=FitTarget.FLUCTUATION_SQUARED)),
])
def test_sweep_matches_per_window_reference(length, config):
    values = with_constant_block(length, seed=length + config.lag)
    trace = sweep(make_returns(values), config)
    expected = reference_trace(values, config)
    assert trace.count == len(expected)
    assert [m.note for m in trace.measurements] == [e[2] for e in expected]
    for m, (h, r_squared, _) in zip(trace.measurements, expected):
        if h is None:
            assert m.h is None and m.r_squared is None
        else:
            assert abs(m.h - h) <= 1e-12
            assert abs(m.r_squared - r_squared) <= 1e-12
    if config.window == 250 and config.lag == 1:
        assert trace.count > 2 * _CHUNK_ROWS
        assert any(m.is_gap for m in trace.measurements)


@pytest.mark.parametrize("config", [
    RollingConfig(window=250, lag=1),
    RollingConfig(window=256, lag=1, estimator=DFA),
])
def test_trace_equals_standalone_at_chunk_boundaries(config):
    values = white_noise(1100, seed=13)
    trace = sweep(make_returns(values), config)
    boundaries = range(_CHUNK_ROWS, trace.count, _CHUNK_ROWS)
    assert len(boundaries) >= 2
    for i in [j for b in boundaries for j in (b - 1, b)] + [trace.count - 1]:
        standalone = estimate_window(values[i:i + config.window], config)
        assert trace.measurements[i].h == standalone.h
        assert trace.measurements[i].r_squared == standalone.r_squared


def test_sweep_deterministic():
    values = white_noise(800, seed=3)
    config = RollingConfig(window=250, lag=10)
    t1 = sweep(make_returns(values), config)
    t2 = sweep(make_returns(values), config)
    assert t1 == t2


def test_too_short_series_rejected():
    with pytest.raises(SeriesTooShortError):
        sweep(make_returns(white_noise(100, seed=4)), RollingConfig(window=250))


def test_preset_plan_resolved_for_250_windows():
    assert _scheme(RollingConfig(window=250), 250).policy is PartitionPolicy.PRESET_250
    assert _scheme(RollingConfig(window=500), 500).policy is PartitionPolicy.DIVISORS_ONLY


def test_dfa_estimator_sweep():
    config = RollingConfig(window=256, lag=50, estimator=EstimatorKind.DFA)
    trace = sweep(make_returns(white_noise(500, seed=5)), config)
    assert trace.count == (500 - 256) // 50 + 1
    assert all(m.h is not None for m in trace.measurements)


def test_gap_windows_recorded_not_dropped():
    values = white_noise(600, seed=6).copy()
    values[250:500] = 2.5  # constant block: every segment degenerate
    config = RollingConfig(window=250, lag=250)
    trace = sweep(make_returns(values), config)
    assert trace.count == 2
    assert not trace.measurements[0].is_gap
    assert trace.measurements[1].is_gap
    assert "AllSegmentsDegenerate" in trace.measurements[1].note


def test_summarize_single_measurement():
    trace = sweep(make_returns(white_noise(250, seed=7)),
                  RollingConfig(window=250, lag=5))
    h = trace.measurements[0].h
    summary = summarize(trace, cut_points=(0.5, 0.7))
    assert summary.count == 1
    assert summary.h_min == summary.h_max == summary.h_mean == h
    expected = {0.5: 1.0 if h > 0.5 else 0.0, 0.7: 1.0 if h > 0.7 else 0.0}
    assert summary.proportions == expected


def test_summarize_strict_tie_rule():
    # measurements exactly at a cut point count for neither side
    trace = sweep(make_returns(white_noise(250, seed=8)),
                  RollingConfig(window=250, lag=5))
    m = trace.measurements[0]
    summary = summarize(trace, cut_points=(m.h,))
    assert summary.proportions[m.h] == 0.0
    assert summary.fraction_below_half == (1.0 if m.h < 0.5 else 0.0)


def test_summary_invariants_on_long_trace():
    trace = sweep(make_returns(white_noise(5000, seed=9)),
                  RollingConfig(window=250, lag=20))
    assert trace.count == (5000 - 250) // 20 + 1 == 238
    summary = summarize(trace)
    assert summary.h_min <= summary.h_mean <= summary.h_max
    assert 0.42 <= summary.h_mean <= 0.58
    # measured white-noise traces put this in [0.11, 0.30] across seeds;
    # the band is wide because small-sample R/S bias pulls h above 0.5
    assert 0.1 <= summary.fraction_below_half <= 0.8
    assert summary.first_measurement_date == SYNTHETIC_EPOCH + dt.timedelta(days=250)


def test_classify_white_noise_mature():
    trace = sweep(make_returns(white_noise(5000, seed=10)),
                  RollingConfig(window=250, lag=20))
    assert classify_market(trace).kind is MarketClassKind.MATURE


def test_classify_persistent_emergent():
    trace = sweep(make_returns(fgn(5000, 0.8, seed=11)),
                  RollingConfig(window=250, lag=20))
    assert classify_market(trace).kind is MarketClassKind.EMERGENT


def test_classify_mixture_hybrid():
    blocks = [fgn(1250, 0.5 if i % 2 == 0 else 0.8, seed=60 + i)
              for i in range(4)]
    trace = sweep(make_returns(np.concatenate(blocks)),
                  RollingConfig(window=250, lag=20))
    assert classify_market(trace).kind is MarketClassKind.HYBRID


def test_classify_needs_ten_measurements():
    trace = sweep(make_returns(white_noise(260, seed=12)),
                  RollingConfig(window=250, lag=5))
    with pytest.raises(TraceTooShortError):
        classify_market(trace)


def test_crash_persistence_rise():
    # White noise with an embedded persistent negative-drift stretch: the
    # rolling h inside the stretch sits well above the quiet-period h.
    config = RollingConfig(window=250, lag=5)
    votes = 0
    for seed in range(10):
        quiet = 0.01 * white_noise(1000, seed=8000 + seed)
        selloff = 0.01 * fgn(600, 0.85, seed=9000 + seed) - 0.002
        trace = sweep(make_returns(np.concatenate([quiet, selloff])), config)
        h = np.array([m.h for m in trace.measurements])
        pre = h[:151].mean()       # windows ending inside the quiet stretch
        inside = h[200:271].mean()  # windows fully inside the sell-off
        votes += (inside - pre) >= 0.1
    assert votes >= 8
