import datetime as dt
import sys

import numpy as np
import pytest

from hurstlab import _kernels, dfa, rescaled_range, rolling
from hurstlab._kernels import _TABLE_VALUES
from hurstlab.dfa import dfa_curve_rows, estimate_hurst_dfa
from hurstlab.errors import (
    ComputationError,
    InvalidSeriesError,
    SeriesTooShortError,
    TraceTooShortError,
)
from hurstlab.rescaled_range import (
    PRESET_250_SEGMENTS,
    EstimatorKind,
    PartitionPolicy,
    StdMode,
    estimate_hurst_rs,
    rs_curve_rows,
)
from hurstlab.rolling import (
    RollingConfig,
    RollingMeasurement,
    RollingTrace,
    _scheme,
    classify_market,
    estimate_window,
    summarize,
    sweep,
)
from hurstlab.rolling import MarketClassKind
from hurstlab.series import ReturnSeries, Transform, transform_returns
from hurstlab.synthetic import SYNTHETIC_EPOCH, fgn, white_noise


def make_returns(values):
    values = np.asarray(values, dtype=float)
    dates = tuple(SYNTHETIC_EPOCH + dt.timedelta(days=i + 1)
                  for i in range(values.size))
    return ReturnSeries(transform=Transform.RAW,
                        dates=dates, values=values)


def test_single_window_boundary():
    trace = sweep(make_returns(white_noise(250, seed=1)),
                  RollingConfig(window=250, lag=5))
    assert trace.count == 1
    assert trace.end_dates[0] == SYNTHETIC_EPOCH + dt.timedelta(days=250)


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


@pytest.mark.parametrize("transform", list(Transform))
def test_window_measurements_match_standalone_bit_for_bit(transform):
    # The sweep reads its returns as given, so a transformed series gives
    # the standalone estimates of its own windows.
    rng = np.random.Generator(np.random.PCG64(41))
    returns = transform_returns(make_returns(rng.normal(size=1000)),
                                transform)
    values = returns.values
    config = RollingConfig(window=250, lag=20)
    trace = sweep(returns, config)
    for i in (0, 7, trace.count - 1):
        start = i * config.lag
        standalone = estimate_window(values[start:start + 250], config)
        assert trace.h[i] == standalone.h
        assert trace.r_squared[i] == standalone.r_squared


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
    assert list(zip(trace.h, trace.r_squared, trace.notes)) == expected
    return trace


@pytest.mark.parametrize("length, config", [
    (1100, RollingConfig(window=250, lag=1)),
    (2000, RollingConfig(window=250, lag=7)),
    (1400, RollingConfig(window=500, lag=3)),
    (900, RollingConfig(window=250, lag=2, std_mode=StdMode.SAMPLE)),
    (1200, RollingConfig(window=256, lag=1, estimator=DFA)),
    (1200, RollingConfig(window=256, lag=3, estimator=DFA)),
    (1400, RollingConfig(window=250, lag=300)),  # disjoint windows
    (1100, RollingConfig(window=251, lag=1)),  # doubling plan
    (1500, RollingConfig(window=250, lag=5)),  # gcd(5, n) is 1 or 5
    (12000, RollingConfig(window=250, lag=1)),  # full size
    (8700, RollingConfig(window=256, lag=2,  # starts 2 apart
                         plan_policy=PartitionPolicy.DIVISORS_ONLY)),
    # 101 windows of up to 250 segments (n = 8) on grids of about 2,100
    # starts
    (2100, RollingConfig(window=2000, lag=1)),
    # 3 windows: the grid scales (n = 10, 20, 25, 50, 100) sum 3 windows
    # of 10 to 100 table entries each
    (1300, RollingConfig(window=1000, lag=150)),
    # The paper's 250/5 protocol on 10,000 prices
    (9999, RollingConfig(window=250, lag=5)),
])
def test_sweep_matches_per_window_reference(length, config):
    values = with_constant_block(length, seed=length + config.lag)
    trace = assert_sweep_matches_reference(values, config)
    if config.window == 250 and config.lag == 1:
        assert trace.count > 2 * (_TABLE_VALUES // config.window)
        assert None in trace.h


def with_constant_runs(length, seed):
    """with_constant_block plus short runs of 0.0 and -2.0, some spanning
    a whole small segment or box, some part of one."""
    values = with_constant_block(length, seed)
    for start in range(1000, length, 1500):
        values[start:start + 40] = 0.0
        values[start + 700:start + 711] = -2.0
    return values


def curves_by_layout(monkeypatch, curve, values, window, lag):
    """The bytes of each array curve(values, window, lag) returns, with
    every scale evaluated from the windows as rows, then from the grid."""
    results = []
    for as_rows in (True, False):
        monkeypatch.setattr(_kernels, "_reads_windows",
                            lambda *args: as_rows)
        results.append([a.tobytes() for a in curve(values, window, lag)])
    return results


@pytest.mark.parametrize("window, lag", [
    (250, 1), (250, 5), (250, 20), (250, 60), (251, 1), (1000, 150)])
def test_rs_layouts_give_identical_bytes(window, lag, monkeypatch):
    # Windows as rows and the gcd grid by columns, on one series with
    # constant runs: every statistic and defined count is the same bits.
    values = with_constant_runs(6000, seed=window + lag)
    plan = _scheme(RollingConfig(window=window), window).segment_lengths
    rows, columns = curves_by_layout(
        monkeypatch, lambda x, w, k: rs_curve_rows(x, w, k, plan),
        values, window, lag)
    assert rows == columns


@pytest.mark.parametrize("window, lag", [
    (256, 1), (256, 5), (256, 20), (250, 60), (1024, 7)])
def test_dfa_layouts_give_identical_bytes(window, lag, monkeypatch):
    # Windows as rows and the gcd grid as box rows, on one series with
    # constant runs: every <F^2> is the same bits.
    values = with_constant_runs(6000, seed=window + lag)
    config = _scheme(RollingConfig(window=window, estimator=DFA), window)
    rows, grid = curves_by_layout(
        monkeypatch, lambda x, w, k: (dfa_curve_rows(x, w, k, config),),
        values, window, lag)
    assert rows == grid


def test_constant_block_across_column_chunks(monkeypatch):
    # With chunks of 512 values, each R/S table at lag 1 takes its grid
    # 512 starts at a time by columns; the block covers start 1024, the
    # first of the third chunk.
    monkeypatch.setattr(_kernels, "_TABLE_VALUES", 512)
    boundary = 2 * 512
    values = with_constant_block(boundary + 500, seed=boundary + 501,
                                 start=boundary - 25)
    starts, column_segments = [], _kernels._column_segments
    monkeypatch.setattr(_kernels, "_column_segments", lambda cols, ddof: (
        cols.shape[0] == 16 and starts.append(cols.shape[1])
        or column_segments(cols, ddof)))
    trace = assert_sweep_matches_reference(values, RollingConfig(lag=1))
    assert starts[:2] == [512, 512] and len(starts) == 3
    assert trace.h[boundary - 1] is trace.h[boundary] is None


@pytest.mark.parametrize("config", [
    # DFA's largest box table at lag 1, as rows of 64-value boxes: its
    # entry s is the first box of window s
    RollingConfig(window=256, lag=1, estimator=DFA),
    # R/S's largest scale at lag 60, read from the windows as rows
    RollingConfig(window=250, lag=60),
])
def test_trace_equals_standalone_at_chunk_boundaries(config, monkeypatch):
    scale, length = (64, 1100) if config.estimator is DFA else (125, 6310)
    per_call = _TABLE_VALUES // (scale if config.lag == 1 else config.window)
    name = "dfa_box_fsq" if config.estimator is DFA else "rs_segments"
    calls, kernel = [], getattr(_kernels, name)
    monkeypatch.setattr(_kernels, name, lambda x, n, *rest: (
        calls.append((n, len(x))) or kernel(x, n, *rest)))
    values = white_noise(length, seed=13)
    trace = sweep(make_returns(values), config)
    rows = [count for n, count in calls if n == scale]
    assert len(rows) >= 2 and rows[0] == per_call
    boundaries = [b for b in np.cumsum(rows[:-1]).tolist() if b < trace.count]
    assert boundaries
    for i in [j for b in boundaries for j in (b - 1, b)] + [trace.count - 1]:
        start = i * config.lag
        standalone = estimate_window(values[start:start + config.window],
                                     config)
        assert trace.h[i] == standalone.h
        assert trace.r_squared[i] == standalone.r_squared


@pytest.mark.parametrize("config", [
    RollingConfig(window=250, lag=1),
    RollingConfig(window=256, lag=7, estimator=DFA),
])
def test_trace_columns_and_their_view(config):
    # One entry per window in each column: the date of the window's last
    # return, None in h and r_squared exactly where a note names the error
    returns = make_returns(with_constant_block(1300, seed=config.lag))
    trace = sweep(returns, config)
    assert trace.end_dates == returns.dates[config.window - 1::config.lag]
    assert trace.count == len(trace.h) == len(trace.r_squared) == len(
        trace.notes) == (1300 - config.window) // config.lag + 1
    gaps = [h is None for h in trace.h]
    assert 0 < sum(gaps) < trace.count
    assert gaps == [r is None for r in trace.r_squared]
    assert gaps == [note != "" for note in trace.notes]
    assert trace.measurements == tuple(
        RollingMeasurement(end_date=d, h=h, r_squared=r, note=note)
        for d, h, r, note in zip(trace.end_dates, trace.h, trace.r_squared,
                                 trace.notes))
    assert [m.is_gap for m in trace.measurements] == gaps
    assert trace.h_values().tolist() == [h for h in trace.h if h is not None]


@pytest.mark.parametrize("columns", [
    dict(end_dates=(SYNTHETIC_EPOCH,), h=(0.5, 0.6), r_squared=(0.9, 0.8),
         notes=("", "")),
    dict(end_dates=(SYNTHETIC_EPOCH,), h=(0.5,), r_squared=(),
         notes=("",)),
    dict(end_dates=(SYNTHETIC_EPOCH,), h=(0.5,), r_squared=(0.9,),
         notes=()),
])
def test_ragged_trace_columns_raise(columns):
    with pytest.raises(InvalidSeriesError, match="RollingTrace columns differ"):
        RollingTrace(**columns)


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
    assert _scheme(RollingConfig(window=250), 250).segment_lengths == (
        PRESET_250_SEGMENTS)
    assert _scheme(RollingConfig(window=500), 500).segment_lengths == (
        10, 20, 25, 50, 100, 125, 250)


def test_dfa_estimator_sweep():
    config = RollingConfig(window=256, lag=50, estimator=EstimatorKind.DFA)
    trace = sweep(make_returns(white_noise(500, seed=5)), config)
    assert trace.count == (500 - 256) // 50 + 1
    assert None not in trace.h


def test_gap_windows_recorded_not_dropped():
    values = white_noise(600, seed=6).copy()
    values[250:500] = 2.5  # constant block: every segment degenerate
    config = RollingConfig(window=250, lag=250)
    trace = sweep(make_returns(values), config)
    assert trace.count == 2
    assert trace.h[0] is not None and trace.notes[0] == ""
    assert trace.h[1] is trace.r_squared[1] is None
    assert "AllSegmentsDegenerate" in trace.notes[1]


@pytest.mark.parametrize("config", [
    RollingConfig(window=250, lag=1),
    RollingConfig(window=256, lag=1, estimator=DFA),
])
def test_gap_notes_come_from_the_sweep_without_a_second_estimate(
        config, monkeypatch):
    # Each gap's note is built from the sweep's own curves: with every
    # standalone estimate made to fail, the sweep still runs, and each gap
    # carries the note the standalone estimate's error gives.
    values = with_constant_runs(3000, seed=config.window)
    values[1600:2400] = -0.5
    expected = reference_trace(values, config)
    assert sum(note != "" for _, _, note in expected) > 500

    def no_estimate(*args, **kwargs):
        raise AssertionError("the sweep estimated a window again")

    for name in ("estimate_window", "estimate_hurst_rs", "estimate_hurst_dfa"):
        monkeypatch.setattr(rolling, name, no_estimate)
    trace = sweep(make_returns(values), config)
    assert trace.count == (values.size - config.window) // config.lag + 1
    assert list(zip(trace.h, trace.r_squared, trace.notes)) == expected
    assert all(note for h, note in zip(trace.h, trace.notes) if h is None)


@pytest.mark.parametrize("config", [
    RollingConfig(window=250, lag=1),
    RollingConfig(window=256, lag=3, estimator=DFA),
])
def test_sweep_and_estimates_make_one_call_of_the_fit_function(
        config, monkeypatch):
    # Curves, fits and gap errors have one path per estimator: the sweep
    # calls rs_fits or dfa_fits once on the whole series, and a standalone
    # estimate, fitted or not, is one call of it on its own window.
    calls = []
    modules = [m for key, m in sys.modules.items()
               if key.split(".")[0] == "hurstlab"]
    for module, name in ((rescaled_range, "rs_fits"), (dfa, "dfa_fits")):
        fits = getattr(module, name)

        def counted(x, window, lag, *rest, name=name, fits=fits, **options):
            calls.append((name, x.size, window, lag))
            return fits(x, window, lag, *rest, **options)
        for bound in modules:  # wherever the name is bound
            if getattr(bound, name, None) is fits:
                monkeypatch.setattr(bound, name, counted)
    name = "dfa_fits" if config.estimator is DFA else "rs_fits"
    values = with_constant_block(1100, seed=5)
    sweep(make_returns(values), config)
    assert calls == [(name, values.size, config.window, config.lag)]
    scheme, w = _scheme(config, config.window), config.window
    direct = estimate_hurst_dfa if config.estimator is DFA else estimate_hurst_rs
    for estimate in (lambda x: direct(x, scheme),
                     lambda x: estimate_window(x, config)):
        raised = []
        for start in (0, 420):  # fitted, and inside the constant block
            calls.clear()
            try:
                estimate(values[start:start + w])
            except ComputationError:
                raised.append(start)
            assert calls == [(name, w, w, 1)]
        assert raised == [420]


def test_dfa_windows_inside_constant_run_are_gaps():
    # Each box is centred on its own mean before it is integrated, so a
    # constant box has exactly zero fluctuation and a window of such
    # boxes is a degenerate curve, not a fit of rounding noise.
    values = white_noise(1000, seed=11).copy()
    values[200:800] = 0.001
    config = RollingConfig(window=256, lag=1, estimator=DFA)
    trace = assert_sweep_matches_reference(values, config)
    inside = range(200, 800 - 256 + 1)
    assert all(trace.h[i] is None for i in inside)
    assert all("DegenerateCurveError" in trace.notes[i] for i in inside)


def test_dfa_window_linear_in_every_box_is_a_gap():
    # The window that starts one value before a constant run: its first
    # box integrates to a straight line and its other boxes are constant,
    # so every box fluctuation is exactly 0, as for a constant window.
    values = white_noise(600, seed=11).copy()
    values[200:] = 0.001
    config = RollingConfig(window=256, lag=1, estimator=DFA)
    trace = sweep(make_returns(values), config)
    with pytest.raises(ComputationError) as raised:
        estimate_window(values[199:199 + 256], config)
    assert trace.h[199] is None
    assert trace.notes[199] == (
        f"{type(raised.value).__name__}: {raised.value}")


def test_summarize_single_measurement():
    trace = sweep(make_returns(white_noise(250, seed=7)),
                  RollingConfig(window=250, lag=5))
    h = trace.h[0]
    summary = summarize(trace, cut_points=(0.5, 0.7))
    assert summary.count == 1
    assert summary.h_min == summary.h_max == summary.h_mean == h
    expected = {0.5: 1.0 if h > 0.5 else 0.0, 0.7: 1.0 if h > 0.7 else 0.0}
    assert summary.proportions == expected


def test_summarize_strict_tie_rule():
    # measurements exactly at a cut point count for neither side
    trace = sweep(make_returns(white_noise(250, seed=8)),
                  RollingConfig(window=250, lag=5))
    h = trace.h[0]
    summary = summarize(trace, cut_points=(h,))
    assert summary.proportions[h] == 0.0
    assert summary.fraction_below_half == (1.0 if h < 0.5 else 0.0)


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
        h = np.array(trace.h)
        pre = h[:151].mean()       # windows ending inside the quiet stretch
        inside = h[200:271].mean()  # windows fully inside the sell-off
        votes += (inside - pre) >= 0.1
    assert votes >= 8
