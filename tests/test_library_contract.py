"""Property test of the library contract of the rolling sweep and the
standalone window estimate.

Whatever the window, lag, plan, estimator and transform, on series with
constant runs at magnitudes from 5e-324 to 1e307: only a HurstLabError
escapes, no warning is raised, and a window is a gap in the trace
exactly when its standalone estimate raises, noted with that error.
"""
import datetime as dt
import warnings

import numpy as np
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from hurstlab.dfa import FitTarget
from hurstlab.errors import HurstLabError
from hurstlab.rescaled_range import EstimatorKind, PartitionPolicy, StdMode
from hurstlab.rolling import RollingConfig, estimate_window, sweep
from hurstlab.series import ReturnSeries, Transform, transform_returns
from hurstlab.synthetic import SYNTHETIC_EPOCH

_SCALES = st.one_of(
    st.sampled_from([5e-324, 1e-310, 1e-300, 1e-150, 1e-3, 1.0, 1e150,
                     1e300, 1e307]),
    st.floats(min_value=5e-324, max_value=1e307),
)


@st.composite
def sweep_cases(draw):
    """Raw returns with constant runs, and a rolling config for them."""
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
    config = dict(
        window=window,
        lag=draw(st.one_of(st.integers(-1, 12), st.integers(1, length))),
        estimator=draw(st.sampled_from(list(EstimatorKind))),
        transform=draw(st.sampled_from(list(Transform))),
        plan_policy=draw(st.sampled_from([None, None, None,
                                          PartitionPolicy.DIVISORS_ONLY,
                                          PartitionPolicy.PRESET_250])),
        min_segment_length=draw(st.sampled_from([8, 8, 8, 2, 4, 30])),
        std_mode=draw(st.sampled_from(list(StdMode))),
        dfa_fit_target=draw(st.sampled_from(list(FitTarget))),
    )
    return values, config


def check_sweep(values, options):
    returns = ReturnSeries(
        source_symbol="T", transform=Transform.RAW,
        dates=tuple(SYNTHETIC_EPOCH + dt.timedelta(days=i + 1)
                    for i in range(values.size)),
        values=values)
    config = RollingConfig(**options)
    trace = sweep(returns, config)
    x = transform_returns(returns, config.transform).values
    for i in {0, trace.count // 2, trace.count - 1}:
        start = i * config.lag
        try:
            est = estimate_window(x[start:start + config.window], config)
        except HurstLabError as exc:
            assert trace.measurements[i].note == f"{type(exc).__name__}: {exc}"
        else:
            assert (trace.measurements[i].h, trace.measurements[i].r_squared
                    ) == (est.h, est.r_squared)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=sweep_cases())
def test_sweep_and_window_estimate_raise_only_hurstlab_errors(case):
    values, options = case
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            check_sweep(values, options)
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
