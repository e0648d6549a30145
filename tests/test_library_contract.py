"""Property tests of the library contract of the exported callables.

Whatever the window, lag, plan and estimator, on series with constant
runs at magnitudes from 5e-324 to 1e307, raw or transformed: only a
HurstLabError escapes the rolling sweep and the standalone window
estimate, no warning is raised, and a window is a gap in the trace
exactly when its standalone estimate raises, noted with that error. The
same holds for the kurtosis, rank-size, DFA and R/S callables on arrays
with NaN and infinities, of rank 0 to 2, and for the generators at any
length (an integer or not), seed and h, and for the CSV parsers on any
text or object and any CSV settings. Every gap of a sweep carries its
standalone estimate's error text, and the sweep has
floor((L - w)/lag) + 1 entries. The entry points that take a curve,
trace, price or return series, rolling config, scan, downfall, critical
level or generator spec raise a typed error on any other object, and so
do a hand-built plan whose segment lengths are not at least 3 increasing
integers in bounds, a non-integer lookback or seed and a float argument
(h, drift, volatility, minimum depth, flat tolerance, cut points) given
a str, None or a sequence. Integer arguments of the plan, the rolling
config, the CSV settings, the DFA box sizes and the fGn autocovariance
take numpy integers, and anything else raises a typed error. So does an
enum setting given anything but a member (its value string included),
and an estimator or parser given anything but its plan or config. Such a
message prints a long rejected value cut short around "...".
"""
import datetime as dt
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from hurstlab.dfa import (
    DfaConfig,
    dfa_fluctuation,
    estimate_hurst_dfa,
)
from hurstlab.downfalls import (
    Downfall,
    classify_episode,
    critical_cutoff,
    excess_kurtosis,
    extract_downfalls,
    progressive_kurtosis,
    rank_size_points,
)
from hurstlab.errors import (
    AllSegmentsDegenerateError,
    ConfigError,
    HOutOfRangeError,
    HurstLabError,
    InputError,
    InvalidCurveError,
    InvalidPlanError,
    InvalidSeriesError,
)
from hurstlab.regression import fit_loglog
from hurstlab.rescaled_range import (
    EstimatorKind,
    PartitionPlan,
    PartitionPolicy,
    StdMode,
    build_partition_plan,
    estimate_hurst_rs,
    rs_at_scale,
    rs_at_scale_with_diagnostics,
    segment_stats,
)
from hurstlab.rolling import (
    RollingConfig,
    classify_market,
    estimate_window,
    summarize,
    sweep,
)
from hurstlab.series import (
    CsvConfig,
    ReturnSeries,
    Transform,
    log_returns,
    parse_price_csv,
    parse_return_csv,
    transform_returns,
)
from hurstlab.synthetic import (
    SYNTHETIC_EPOCH,
    GeneratorKind,
    GeneratorSpec,
    fbm,
    fgn,
    fgn_autocovariance,
    generate,
    random_walk_prices,
    white_noise,
)
from hurstlab.vstat import v_statistic

_SCALES = st.one_of(
    st.sampled_from([5e-324, 1e-310, 1e-300, 1e-150, 1e-3, 1.0, 1e150,
                     1e300, 1e307]),
    st.floats(min_value=5e-324, max_value=1e307),
)


def _rarely(draw) -> bool:
    """True one draw in ten: a setting that the chosen kind does not read,
    which its config rejects, is added that rarely, so that most cases
    still reach the estimate or the generator."""
    return draw(st.sampled_from([False] * 9 + [True]))


@st.composite
def sweep_cases(draw):
    """Raw returns with constant runs, a transform and a rolling config for
    them."""
    length = draw(st.one_of(st.integers(2, 600), st.integers(260, 600)))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2 ** 32))))
    scale = draw(_SCALES)
    values = rng.standard_normal(length) * scale
    for start, size, level in draw(st.lists(st.tuples(
            st.integers(0, length - 1), st.integers(1, 200),
            st.sampled_from([0.0, 1.0, -2.5])), max_size=4)):
        values[start:start + size] = level * scale
    # Mostly a valid window and lag; a few that the config or sweep rejects
    valid = st.integers(max(2, length // 3), length)
    if length >= 250:  # the preset plan's window
        valid = st.one_of(valid, st.just(250))
    window = draw(st.one_of(valid, valid, st.integers(-1, length + 5)))
    estimator = draw(st.sampled_from(list(EstimatorKind)))
    config = dict(
        window=window,
        lag=draw(st.one_of(st.integers(-1, 12), st.integers(1, length))),
        estimator=estimator,
    )
    if estimator is EstimatorKind.RESCALED_RANGE or _rarely(draw):
        config.update(
            plan_policy=draw(st.sampled_from([PartitionPolicy.AUTO,
                                              PartitionPolicy.AUTO,
                                              PartitionPolicy.AUTO,
                                              PartitionPolicy.DIVISORS_ONLY,
                                              PartitionPolicy.PRESET_250])),
            min_segment_length=draw(st.sampled_from([8, 8, 8, 2, 4, 30])),
            std_mode=draw(st.sampled_from(list(StdMode))))
    return values, draw(st.sampled_from(list(Transform))), config


def check_sweep(values, transform, options):
    returns = transform_returns(ReturnSeries(
        transform=Transform.RAW,
        dates=tuple(SYNTHETIC_EPOCH + dt.timedelta(days=i + 1)
                    for i in range(values.size)),
        values=values), transform)
    config = RollingConfig(**options)
    trace = sweep(returns, config)
    x = returns.values
    assert trace.count == (x.size - config.window) // config.lag + 1
    gaps = {i for i, h in enumerate(trace.h) if h is None}
    for i in gaps | {0, trace.count // 2, trace.count - 1}:
        start = i * config.lag
        try:
            est = estimate_window(x[start:start + config.window], config)
        except HurstLabError as exc:
            assert trace.notes[i] == f"{type(exc).__name__}: {exc}"
        else:
            assert i not in gaps
            assert (trace.h[i], trace.r_squared[i]) == (est.h, est.r_squared)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=sweep_cases())
def test_sweep_and_window_estimate_raise_only_hurstlab_errors(case):
    values, transform, options = case
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            check_sweep(values, transform, options)
        except HurstLabError as exc:
            event(f"sweep: {type(exc).__name__}")
        else:
            event("sweep: trace")
        try:
            window = max(options["window"], 1)
            estimate_window(values[:window], RollingConfig(**options))
        except HurstLabError as exc:
            event(f"window: {type(exc).__name__}")
        else:
            event("window: estimate")
    assert [str(w.message) for w in caught] == []


@st.composite
def arrays(draw):
    """Values at one of _SCALES with constant runs and NaN or infinite
    runs, as a 1-D array of 0 to 600 values three times in five, else as
    a scalar or a two-row array."""
    length = draw(st.integers(0, 600))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2 ** 32))))
    scale = draw(_SCALES)
    values = rng.standard_normal(length) * scale
    for start, size, level in draw(st.lists(st.tuples(
            st.integers(0, max(length - 1, 0)), st.integers(1, 200),
            st.sampled_from([0.0, 1.0, -2.5, math.nan, math.inf, -math.inf])),
            max_size=3)):
        values[start:start + size] = level * scale
    rank = draw(st.sampled_from([1, 1, 1, 0, 2]))
    if rank == 0:
        return values[0] if length else np.float64(scale)
    if rank == 2:
        return values[: length - length % 2].reshape(2, -1)
    return values


def downfalls(depths, open_last):
    """One episode per depth, the last one still open if open_last."""
    day = dt.timedelta(days=1)
    depths = np.ravel(depths).tolist()
    episodes = []
    for i, depth in enumerate(depths):
        closed = not (open_last and i == len(depths) - 1)
        peak = SYNTHETIC_EPOCH + 3 * i * day
        episodes.append(Downfall(
            peak_date=peak, trough_date=peak + day,
            recovery_date=peak + 2 * day if closed else None, depth=depth,
            peak_index=3 * i, trough_index=3 * i + 1,
            recovery_index=3 * i + 2 if closed else None))
    return episodes


_NON_INTEGERS = st.sampled_from([10.5, 10.0, 2.5, math.nan, math.inf,
                                 np.float64(10.0), "10", None])
_NON_FLOATS = st.sampled_from(["0.5", None, (0.5,), [0.5], b"0.5", 1j,
                               np.array([0.5])])
#: Reals of every kind, and now and then something else
_FLOATS = st.one_of(st.floats(), st.integers(), st.sampled_from(
    [np.float32(0.5), np.int64(0), 10 ** 400]), _NON_FLOATS)
_PRICES = random_walk_prices(300, 1)
_CURVE = estimate_hurst_rs(white_noise(250, seed=3), build_partition_plan(
    250, PartitionPolicy.AUTO)).curve
_TRACE = sweep(log_returns(_PRICES), RollingConfig(window=250, lag=5))


@st.composite
def array_calls(draw):
    """(name, callable, arguments) of an array callable on a drawn array,
    or, one time in three, of an entry point that takes a curve, trace,
    price series, scan, downfalls or generator spec on that array or
    another object, of extract_downfalls at a drawn lookback, or of an
    entry point given a drawn real or other object as its float or cut
    points."""
    x = draw(arrays())
    scale = draw(st.integers(-3, 700))
    std_mode = draw(st.sampled_from(list(StdMode)))
    include_open = draw(st.booleans())
    if draw(st.integers(0, 2)) == 2:
        other = draw(st.one_of(st.just(x), st.sampled_from(
            [None, 2.5, "trace", _PRICES])))
        return draw(st.sampled_from([
            ("v_statistic", v_statistic, (other,)),
            ("fit_loglog", fit_loglog, (other,)),
            ("summarize", summarize, (other,)),
            ("classify_market", classify_market, (other,)),
            ("extract_downfalls", extract_downfalls, (other,)),
            ("extract_downfalls", extract_downfalls, (_PRICES, draw(
                st.one_of(st.integers(-3, 400), _NON_INTEGERS)))),
            ("critical_cutoff", critical_cutoff, (other,)),
            ("log_returns", log_returns, (other,)),
            ("generate", generate, (other,)),
            ("progressive_kurtosis", progressive_kurtosis, (other,)),
            ("rank_size_points", rank_size_points, (other,)),
            ("classify_episode", classify_episode, (other, other)),
            ("classify_episode", classify_episode,
             (downfalls([0.1], False)[0], other)),
            ("v_statistic", v_statistic, (_CURVE, draw(_FLOATS))),
            ("extract_downfalls", extract_downfalls,
             (_PRICES, 126, draw(_FLOATS))),
            ("summarize", summarize, (_TRACE, draw(st.one_of(
                st.lists(_FLOATS, max_size=4), _FLOATS)))),
        ]))
    return draw(st.sampled_from([
        ("excess_kurtosis", excess_kurtosis, (x,)),
        ("progressive_kurtosis", progressive_kurtosis,
         (downfalls(x, include_open), include_open)),
        ("rank_size_points", rank_size_points,
         (downfalls(x, include_open), include_open)),
        ("dfa_fluctuation", dfa_fluctuation, (x, scale)),
        ("rs_at_scale", rs_at_scale, (x, scale, std_mode)),
        ("segment_stats", segment_stats, (x, std_mode)),
    ]))


_H_GRID = st.one_of(
    st.sampled_from([0.0, 1.0, math.nan, math.inf, -math.inf, -0.5, 1.5,
                     5e-324, 1e-300, 0.5, 0.999999999999, 1.0 - 2.0 ** -53]),
    st.floats(min_value=0.0, max_value=1.0),
)
_SEEDS = st.one_of(st.integers(-3, 10), st.integers(2 ** 64 - 2, 2 ** 66))


_LENGTHS = st.one_of(st.integers(-3, 300), st.integers(-3, 70_000))


@st.composite
def generator_calls(draw):
    """(name, callable, arguments) of a generator, directly or through a
    spec, at a drawn length and seed (each now and then not an integer),
    h, drift and volatility (each now and then not a real), or of
    fgn_autocovariance at a drawn h and lag (now and then not an
    integer)."""
    lag = draw(st.one_of(_LENGTHS, _LENGTHS, _NON_INTEGERS))
    length = draw(st.one_of(_LENGTHS, _LENGTHS, _NON_INTEGERS))
    seed = draw(st.one_of(_SEEDS, _SEEDS, _NON_INTEGERS))
    h = draw(st.one_of(_H_GRID, _H_GRID, _NON_FLOATS))
    drift, volatility = (draw(st.one_of(
        st.sampled_from([0.0, 1e-3, -0.5, 1e300]), _FLOATS)) for _ in "dv")
    kind = draw(st.sampled_from(list(GeneratorKind)))
    # The spec sets the fields its kind reads, and rarely one it does not.
    takes_h = kind in (GeneratorKind.FGN, GeneratorKind.FBM)
    takes_walk = kind is GeneratorKind.RANDOM_WALK_PRICES
    spec = GeneratorSpec(kind, length, seed,
                         h if takes_h or _rarely(draw) else None,
                         drift if takes_walk or _rarely(draw) else 0.0,
                         volatility if takes_walk or _rarely(draw) else 1.0)
    return draw(st.sampled_from([
        ("white_noise", white_noise, (length, seed)),
        ("fgn", fgn, (length, h, seed)),
        ("fbm", fbm, (length, h, seed)),
        ("random_walk_prices", random_walk_prices,
         (length, seed, drift, volatility)),
        ("fgn_autocovariance", fgn_autocovariance, (h, lag)),
        ("generate", generate, (spec,)),
    ]))


def check_call(name, fn, args):
    """Call fn; only a HurstLabError may escape and nothing may warn."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args)
        except HurstLabError as exc:
            event(f"{name}: {type(exc).__name__}")
            result = None
        else:
            event(f"{name}: result")
    assert [str(w.message) for w in caught] == []
    return result


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(call=array_calls())
def test_array_callables_raise_only_hurstlab_errors(call):
    result = check_call(*call)
    name, _, (x, *_) = call
    if name == "excess_kurtosis":
        values = np.asarray(x)
        # a finite sample of at least 4 values that differ has a kurtosis
        if (values.ndim == 1 and values.size >= 4
                and np.isfinite(values).all() and values.min() < values.max()):
            assert math.isfinite(result)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(call=generator_calls())
def test_generators_raise_only_hurstlab_errors(call):
    check_call(*call)


#: The default of each CSV setting, and other values, valid or not
_CSV_SETTINGS = dict(
    delimiter=(",", [";", "\t", '"', "\r", "\n", "\x00", "", ",,", None, 5,
                     b","]),
    date_column=(0, [1, 2, -1, np.int64(0), 1.5, "0", None]),
    close_column=(1, [0, 3, np.int32(1), 1.0, "1", None]),
    date_format=("%Y-%m-%d", ["%d/%m/%Y", "%Y", "%", "", None, 5]),
)


@st.composite
def parser_calls(draw):
    """(name, callable, arguments) of a CSV parser on drawn text (now and
    then not a str) under CSV settings each drawn from its other values
    one time in four."""
    text = draw(st.one_of(
        st.text(alphabet=st.sampled_from(list('0123456789-/.,;e"\r\n\t '
                                              '\x00\x1c\x85nai')),
                max_size=80),
        st.just("date,close\n2000-01-03,1.5\n2000-01-04,2.5\n"),
        st.sampled_from([b"date,close\n2000-01-03,1.5\n", None, 5,
                         ["date,close"]])))
    settings_ = {name: draw(st.sampled_from(others))
                 if draw(st.integers(0, 3)) == 0 else default
                 for name, (default, others) in _CSV_SETTINGS.items()}
    parse = draw(st.sampled_from([parse_price_csv, parse_return_csv]))
    return (parse.__name__, lambda: parse(text, CsvConfig(**settings_)), ())


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(call=parser_calls())
def test_csv_parsers_raise_only_hurstlab_errors(call):
    check_call(*call)


# -- integer arguments ---------------------------------------------------------

@pytest.mark.parametrize("call", [
    lambda: build_partition_plan(300, PartitionPolicy.DIVISORS_ONLY, 8.5),
    lambda: build_partition_plan(300.0, PartitionPolicy.DIVISORS_ONLY),
    lambda: PartitionPlan(300, [math.nan, 30, 60]),
    lambda: PartitionPlan(300, [10.5, 30, 60]),
    lambda: PartitionPlan(300, ["10", 30, 60]),
])
def test_plan_non_integers_raise_invalid_plan(call):
    with pytest.raises(InvalidPlanError):
        call()


def test_plan_accepts_numpy_integers():
    plan = build_partition_plan(np.int64(300), PartitionPolicy.DIVISORS_ONLY,
                                np.int32(50))
    assert plan.total_length == 300 and type(plan.total_length) is int
    assert plan.segment_lengths == (50, 60, 75, 100, 150)
    assert all(type(n) is int for n in plan.segment_lengths)
    assert plan == build_partition_plan(np.uint16(300),
                                        PartitionPolicy.DIVISORS_ONLY, 50)


@pytest.mark.parametrize("options", [
    dict(window=250.5), dict(window="250"), dict(window=None),
    dict(lag="5"), dict(lag=5.0), dict(min_segment_length="8"),
    dict(min_segment_length=8.0, estimator=EstimatorKind.DFA),
])
def test_rolling_config_non_integers_raise_config_error(options):
    with pytest.raises(ConfigError, match="must be an integer"):
        RollingConfig(**options)


def test_rolling_config_accepts_numpy_integers():
    config = RollingConfig(window=np.int64(250), lag=np.int32(50),
                           min_segment_length=np.uint8(8))
    assert (config.window, config.lag, config.min_segment_length) == (250, 50, 8)
    assert type(config.min_segment_length) is int
    values = white_noise(400, seed=2)
    returns = ReturnSeries(
        transform=Transform.RAW,
        dates=tuple(SYNTHETIC_EPOCH + dt.timedelta(days=i)
                    for i in range(values.size)),
        values=values)
    assert sweep(returns, config) == sweep(returns, RollingConfig(lag=50))


@pytest.mark.parametrize("estimator, field, value", [
    (EstimatorKind.DFA, "plan_policy", PartitionPolicy.PRESET_250),
    (EstimatorKind.DFA, "min_segment_length", 500),
    (EstimatorKind.DFA, "std_mode", StdMode.SAMPLE),
])
def test_rolling_config_rejects_fields_its_estimator_does_not_read(
        estimator, field, value):
    # Each was silently ignored: the config estimated what the default did.
    with pytest.raises(ConfigError, match=f"the {estimator.value} estimator "
                                          f"does not read {field};"):
        RollingConfig(estimator=estimator, **{field: value})
    default = RollingConfig._defaults[field]
    assert RollingConfig(estimator=estimator, **{field: default}) == (
        RollingConfig(estimator=estimator))


def test_none_plan_policy_raises_invalid_plan():
    with pytest.raises(InvalidPlanError, match="unknown policy None"):
        estimate_window(white_noise(250, seed=1),
                        RollingConfig(plan_policy=None))


@pytest.mark.parametrize("settings_", [
    dict(date_column="0"), dict(date_column=None), dict(close_column=1.5),
    dict(close_column=1.0), dict(delimiter=None), dict(delimiter=5),
    dict(delimiter=b","), dict(date_format=None), dict(date_format=5),
])
def test_csv_config_bad_types_raise_config_error(settings_):
    with pytest.raises(ConfigError, match="must be"):
        CsvConfig(**settings_)


def test_csv_config_accepts_numpy_integers():
    config = CsvConfig(date_column=np.int64(0), close_column=np.int32(1))
    assert (config.date_column, config.close_column) == (0, 1)
    assert all(type(n) is int for n in (config.date_column,
                                        config.close_column))


@pytest.mark.parametrize("parse", [parse_price_csv, parse_return_csv])
@pytest.mark.parametrize("text", [b"date,close\n2000-01-03,1.5\n", None, 5,
                                  ["date,close"]])
def test_csv_parsers_reject_text_that_is_not_str(parse, text):
    with pytest.raises(InputError, match="CSV text must be a str"):
        parse(text)


@pytest.mark.parametrize("lag", [2.5, 10.0, "10", None, math.nan])
def test_fgn_autocovariance_non_integer_lag_raises_config_error(lag):
    with pytest.raises(ConfigError, match="lag must be an integer"):
        fgn_autocovariance(0.7, lag)


def test_fgn_autocovariance_takes_numpy_and_negative_lags():
    assert fgn_autocovariance(0.7, np.int64(-10)) == fgn_autocovariance(0.7, 10)


def test_dfa_box_sizes_take_numpy_integers():
    config = DfaConfig(np.array([8, 16, 32]))
    assert config.box_sizes == (8, 16, 32)
    assert all(type(b) is int for b in config.box_sizes)
    assert config == DfaConfig([np.int32(8), 16, np.uint8(32)])


@pytest.mark.parametrize("call", [
    lambda: DfaConfig(None),
    lambda: DfaConfig(8),
    lambda: DfaConfig((8, 16.5, 32)),
    lambda: DfaConfig((8, "16", 32)),
    lambda: PartitionPlan(300, 5),
])
def test_non_integer_sizes_raise_invalid_plan(call):
    with pytest.raises(InvalidPlanError, match="must be"):
        call()


# -- enum settings and config objects -------------------------------------------

_X = white_noise(250, seed=3)
_RETURNS = ReturnSeries(
    transform=Transform.RAW,
    dates=tuple(SYNTHETIC_EPOCH + dt.timedelta(days=i) for i in range(250)),
    values=_X)


@pytest.mark.parametrize("policy", PartitionPolicy)
def test_every_partition_policy_is_accepted(policy):
    # 250 values fit each policy: preset250, and 4 divisors from 8 up.
    config = RollingConfig(plan_policy=policy)
    plan = build_partition_plan(250, policy)
    assert (config.plan_policy, plan.total_length) == (policy, 250)
    assert estimate_window(_X, config) == estimate_hurst_rs(_X, plan)


@pytest.mark.parametrize("kind, call", [
    (EstimatorKind, lambda bad: RollingConfig(estimator=bad)),
    (Transform, lambda bad: ReturnSeries(bad, _RETURNS.dates, _X)),
    (PartitionPolicy, lambda bad: RollingConfig(plan_policy=bad)),
    (StdMode, lambda bad: RollingConfig(std_mode=bad)),
    (PartitionPolicy, lambda bad: build_partition_plan(250, bad)),
    (StdMode, lambda bad: estimate_hurst_rs(
        _X, build_partition_plan(250, PartitionPolicy.AUTO), bad)),
    (StdMode, lambda bad: segment_stats(_X[:25], bad)),
    (StdMode, lambda bad: rs_at_scale(_X, 25, bad)),
    (StdMode, lambda bad: rs_at_scale_with_diagnostics(_X, 25, bad)),
    (Transform, lambda bad: transform_returns(_RETURNS, bad)),
])
def test_settings_that_are_not_members_raise_config_error(kind, call):
    # Before these checks, std_mode "population" gave the sample std,
    # estimator "dfa" ran R/S and the transform "absolute" squared the
    # returns.
    others = [m for k in (StdMode, Transform) if k is not kind
              for m in k]
    for bad in ([m.value for m in kind] + [m.name for m in kind] + others
                + [None, 0, 1.0]):
        with pytest.raises(ConfigError, match=f"unknown .* expected a "
                                              f"{kind.__name__}"):
            call(bad)


@pytest.mark.parametrize("call, error", [
    (lambda: parse_price_csv("date,close\n2000-01-03,1.5\n", None),
     ConfigError),
    (lambda: parse_return_csv("date,value\n2000-01-03,0.5\n", "default"),
     ConfigError),
    (lambda: estimate_hurst_rs(_X, None), InvalidPlanError),
    (lambda: estimate_hurst_rs(_X, DfaConfig((8, 16, 32))), InvalidPlanError),
    (lambda: estimate_hurst_dfa(_X, None), InvalidPlanError),
    (lambda: estimate_hurst_dfa(_X, build_partition_plan(
        250, PartitionPolicy.AUTO)), InvalidPlanError),
])
def test_estimators_and_parsers_reject_other_configs(call, error):
    with pytest.raises(error, match="unknown .* expected a"):
        call()


@pytest.mark.parametrize("call, error, message", [
    (lambda: v_statistic(None), InvalidCurveError, "unknown curve None"),
    (lambda: fit_loglog(None), InvalidCurveError, "unknown curve None"),
    (lambda: summarize(None), ConfigError, "unknown trace None"),
    (lambda: classify_market(None), ConfigError, "unknown trace None"),
    (lambda: extract_downfalls(None), ConfigError, "unknown price series"),
    (lambda: extract_downfalls(_PRICES, lookback_days=2.5), ConfigError,
     "lookback_days must be an integer"),
    (lambda: critical_cutoff(None), ConfigError, "unknown scan None"),
    (lambda: log_returns(None), ConfigError, "unknown price series"),
    (lambda: generate(None), ConfigError, "unknown generator spec None"),
    (lambda: random_walk_prices(300, 1.5), ConfigError,
     "seed must be an integer"),
    (lambda: summarize(_TRACE, None), ConfigError,
     "cut point must be real numbers, got None"),
    (lambda: summarize(_TRACE, ("a",)), ConfigError,
     "cut point must be a real number, got 'a'"),
    (lambda: v_statistic(_CURVE, None), ConfigError,
     "flat_tolerance must be a real number, got None"),
    (lambda: extract_downfalls(_PRICES, min_depth=None), ConfigError,
     "min_depth must be a real number, got None"),
    (lambda: progressive_kurtosis(None), ConfigError,
     "downfalls must be a sequence of Downfall, got None"),
    (lambda: progressive_kurtosis([0.1] * 5), ConfigError,
     "unknown downfall 0.1"),
    (lambda: rank_size_points(None), ConfigError,
     "downfalls must be a sequence of Downfall, got None"),
    (lambda: classify_episode(None, None), ConfigError,
     "unknown downfall None"),
    (lambda: classify_episode(downfalls([0.1], False)[0], None), ConfigError,
     "unknown critical level None"),
    (lambda: random_walk_prices(10, 1, drift=None), ConfigError,
     "drift must be a real number, got None"),
    (lambda: random_walk_prices(10, 1, volatility="1"), ConfigError,
     "volatility must be a real number, got '1'"),
    (lambda: fgn(10, None, 1), ConfigError, "h must be a real number"),
    (lambda: fgn(10, "0.5", 1), ConfigError, "h must be a real number"),
    (lambda: generate(GeneratorSpec(GeneratorKind.WHITE_NOISE, 10, 1,
                                    drift=None)), ConfigError,
     "drift must be a real number, got None"),
    (lambda: generate(GeneratorSpec(GeneratorKind.FGN, 10, 1, h="0.5")),
     ConfigError, "h must be a real number, got '0.5'"),
    (lambda: fbm(1, "0.5", -1), ConfigError, "h must be a real number"),
    (lambda: fbm(1, None, 0), ConfigError, "h must be a real number"),
    (lambda: fbm(1, 2.0, 0), HOutOfRangeError, r"h must be in \(0, 1\)"),
    (lambda: transform_returns(None, Transform.ABSOLUTE), ConfigError,
     "unknown return series None"),
    (lambda: transform_returns(None, Transform.RAW), ConfigError,
     "unknown return series None"),
    (lambda: sweep(None, RollingConfig()), ConfigError,
     "unknown return series None"),
    (lambda: sweep([0.1] * 300, RollingConfig()), ConfigError,
     "unknown return series"),
    (lambda: sweep(_RETURNS, None), ConfigError, "unknown rolling config None"),
    (lambda: sweep(_RETURNS, "x"), ConfigError, "unknown rolling config 'x'"),
    (lambda: estimate_window(np.ones(250), None), ConfigError,
     "unknown rolling config None"),
    (lambda: estimate_window(None, RollingConfig()), InvalidSeriesError,
     r"expected a 1-D series, got shape \(\)"),
    # A list is read as its values; these are constant
    (lambda: estimate_window([0.1] * 250, RollingConfig()),
     AllSegmentsDegenerateError, "segments of length 16 are constant"),
])
def test_entry_points_reject_other_objects(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("call, message", [
    # Printed whole, these values made messages of 1,547 and 5,043 characters
    (lambda: sweep([0.1] * 300, RollingConfig()),
     "unknown return series [0.1, 0.1, 0.1, 0.1, 0.1, 0.1, ...], "
     "expected a ReturnSeries"),
    (lambda: parse_price_csv("date,close\n2000-01-03,1.5\n", "x" * 5000),
     "unknown CSV config 'xxxxxxxxxxxx...xxxxxxxxxxxxx', expected a CsvConfig"),
    # An enum member is printed whole
    (lambda: rs_at_scale(_X, 25, EstimatorKind.RESCALED_RANGE),
     "unknown std_mode <EstimatorKind.RESCALED_RANGE: 'rescaled_range'>, "
     "expected a StdMode"),
])
def test_rejected_values_are_printed_bounded(call, message):
    with pytest.raises(ConfigError) as info:
        call()
    assert str(info.value) == message


def test_window_estimate_reads_a_list_as_its_values():
    config = RollingConfig(window=250)
    assert estimate_window(list(_X), config) == estimate_window(_X, config)


@pytest.mark.parametrize("lengths, message", [
    ((0, 8, 16), "segment lengths 0..16 out of bounds for length 250"),
    ((-5, 8, 16), "segment lengths -5..16 out of bounds for length 250"),
    ((8, 16, 300), "segment lengths 8..300 out of bounds for length 250"),
    ((8.5, 16, 32), "segment length must be an integer, got 8.5"),
    (("8", 16, 32), "segment length must be an integer, got '8'"),
    ((8, 16), "plan yields only 2 scales; need at least 3"),
    ((8, 32, 16), "segment lengths must be strictly increasing"),
    ((8, 16, 16), "segment lengths must be strictly increasing"),
    (None, "segment length must be integers, got None"),
])
def test_hand_built_plans_check_their_segment_lengths(lengths, message):
    with pytest.raises(InvalidPlanError) as info:
        estimate_hurst_rs(_X, PartitionPlan(250, lengths))
    assert str(info.value) == message


def test_hand_built_plan_takes_numpy_integers():
    plan = PartitionPlan(np.int64(250), np.array([25, 50, 125]))
    assert (plan.total_length, plan.segment_lengths) == (250, (25, 50, 125))
    assert all(type(n) is int for n in (plan.total_length,
                                        *plan.segment_lengths))
    assert estimate_hurst_rs(_X, plan) == estimate_hurst_rs(
        _X, build_partition_plan(250, PartitionPolicy.DIVISORS_ONLY, 25))


def test_float_arguments_take_numpy_reals():
    assert summarize(_TRACE, np.array([0.5, 0.6])) == summarize(
        _TRACE, (0.5, 0.6))
    assert extract_downfalls(_PRICES, min_depth=np.float32(0.0)) == (
        extract_downfalls(_PRICES))
    assert v_statistic(_CURVE, np.float64(0.09)) == v_statistic(_CURVE)
    assert np.array_equal(fgn(64, np.float32(0.5), 1), fgn(64, 0.5, 1))
    assert np.array_equal(random_walk_prices(10, 1, np.int64(0), 1).closes,
                          random_walk_prices(10, 1).closes)
