import datetime as dt

import numpy as np
import pytest

from hurstlab import _kernels
from hurstlab._kernels import _MAJOR_ROWS, _TABLE_VALUES
from hurstlab.dfa import FitTarget
from hurstlab.errors import (
    ComputationError,
    SeriesTooShortError,
    TraceTooShortError,
)
from hurstlab.rescaled_range import EstimatorKind, PartitionPolicy, StdMode
from hurstlab.rolling import (
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


def with_constant_block(length, seed, start=400):
    # Windows inside the block, or ending just past it (every small-scale
    # segment constant), are gaps; others overlapping it skip segments.
    values = white_noise(length, seed=seed).copy()
    values[start:start + 300] = 1.5
    return values


DFA = EstimatorKind.DFA


def assert_sweep_matches_reference(values, config):
    trace = sweep(make_returns(values), config)
    expected = reference_trace(values, config)
    assert trace.count == len(expected)
    assert [m.note for m in trace.measurements] == [e[2] for e in expected]
    assert [(m.h, m.r_squared) for m in trace.measurements] == [
        (h, r_squared) for h, r_squared, _ in expected]
    return trace


@pytest.mark.parametrize("length, config", [
    (1100, RollingConfig(window=250, lag=1)),
    (2000, RollingConfig(window=250, lag=7)),
    (1400, RollingConfig(window=500, lag=3)),
    (900, RollingConfig(window=250, lag=2, std_mode=StdMode.SAMPLE)),
    (1200, RollingConfig(window=256, lag=1, estimator=DFA)),
    (1200, RollingConfig(window=256, lag=3, estimator=DFA,
                         dfa_fit_target=FitTarget.FLUCTUATION_SQUARED)),
    (1400, RollingConfig(window=250, lag=300)),  # no shared segments
    (1100, RollingConfig(window=251, lag=1)),  # doubling plan
    (1500, RollingConfig(window=250, lag=5)),  # gcd(5, n) is 1 or 5
    # Full size: every scale's table takes the column layout
    (12000, RollingConfig(window=250, lag=1)),
    (8700, RollingConfig(window=256, lag=2,  # starts 2 apart
                         plan_policy=PartitionPolicy.DIVISORS_ONLY)),
    # 101 windows: scales with more segments than windows sum each
    # window on its own, the others sum columns of windows
    (2100, RollingConfig(window=2000, lag=1)),
    # 3 windows: every scale but n = 500 (2 segments) sums each window
    # on its own
    (1300, RollingConfig(window=1000, lag=150)),
])
def test_sweep_matches_per_window_reference(length, config, monkeypatch):
    # the segment length of each table evaluated column by column
    column_tables, column_segments = [], _kernels._column_segments
    monkeypatch.setattr(_kernels, "_column_segments", lambda *args: (
        column_tables.append(args[4]) or column_segments(*args)))
    values = with_constant_block(length, seed=length + config.lag)
    trace = assert_sweep_matches_reference(values, config)
    if config.window == 250 and config.lag == 1:
        assert trace.count > 2 * (_TABLE_VALUES // config.window)
        assert any(m.is_gap for m in trace.measurements)
    # Only the full-size cases have that many windows, at lags whose
    # starts are evenly spaced at every scale.
    if trace.count >= _MAJOR_ROWS:
        assert sorted(set(column_tables)) == list(_scheme(
            config, config.window).segment_lengths)
    else:
        assert column_tables == []


def test_constant_block_across_table_and_gather_chunks(monkeypatch):
    # At lag 1, segment start `boundary` starts the second chunk of the
    # n = 16 segment table, evaluated as rows.
    config = RollingConfig(window=250, lag=1)
    boundary = _TABLE_VALUES // 16
    values = with_constant_block(boundary + 500, seed=boundary + 501,
                                 start=boundary - 25)
    trace = assert_sweep_matches_reference(values, config)
    assert trace.measurements[boundary - 1].is_gap
    assert trace.measurements[boundary].is_gap
    # With chunks of 64 to 127 rows, every table takes the column layout
    # and window `boundary` starts a span of summed windows.
    monkeypatch.setattr(_kernels, "_MAJOR_ROWS", 64)
    spans = _kernels._spans(651)
    boundary = spans[2][0]
    values = with_constant_block(900, seed=901, start=boundary - 25)
    trace = assert_sweep_matches_reference(values, config)
    assert trace.count == 651 and len(spans) > 3
    assert trace.measurements[boundary - 1].is_gap
    assert trace.measurements[boundary].is_gap


@pytest.mark.parametrize("config", [
    RollingConfig(window=250, lag=1),
    RollingConfig(window=256, lag=1, estimator=DFA),
])
def test_trace_equals_standalone_at_chunk_boundaries(config, monkeypatch):
    # The largest scale's table is evaluated as rows of segments or boxes,
    # _TABLE_VALUES // scale at a time; at lag 1 its entry s is the first
    # segment of window s.
    name = "dfa_box_fsq" if config.estimator is DFA else "rs_segments"
    calls, kernel = [], getattr(_kernels, name)
    monkeypatch.setattr(_kernels, name, lambda x, scale, *rest: (
        calls.append((scale, len(x))) or kernel(x, scale, *rest)))
    values = white_noise(1100, seed=13)
    trace = sweep(make_returns(values), config)
    largest = max(scale for scale, _ in calls)
    rows = [count for scale, count in calls if scale == largest]
    assert len(rows) >= 2 and rows[0] == _TABLE_VALUES // largest
    boundaries = [b for b in np.cumsum(rows[:-1]).tolist() if b < trace.count]
    assert boundaries
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


def test_dfa_windows_inside_constant_run_are_gaps():
    # Each box is centred on its own mean before it is integrated, so a
    # constant box has exactly zero fluctuation and a window of such
    # boxes is a degenerate curve, not a fit of rounding noise.
    values = white_noise(1000, seed=11).copy()
    values[200:800] = 0.001
    config = RollingConfig(window=256, lag=1, estimator=DFA)
    trace = assert_sweep_matches_reference(values, config)
    inside = range(200, 800 - 256 + 1)
    assert all(trace.measurements[i].is_gap for i in inside)
    assert all("DegenerateCurveError" in trace.measurements[i].note
               for i in inside)


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
