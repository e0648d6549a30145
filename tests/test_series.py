import datetime as dt
import math

import numpy as np
import pytest

from hurstlab.dfa import (
    DfaConfig,
    default_box_sizes,
    dfa_fluctuation,
    estimate_hurst_dfa,
)
from hurstlab.errors import (
    AlreadyTransformedError,
    DuplicateDateError,
    InputError,
    InvalidSeriesError,
    MalformedRowError,
    NonPositivePriceError,
    TooShortError,
)
from hurstlab.rescaled_range import (
    PartitionPolicy,
    build_partition_plan,
    estimate_hurst_rs,
    rs_at_scale,
    segment_stats,
)
from hurstlab.series import (
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
from hurstlab.synthetic import random_walk_prices


def make_prices(closes, symbol="TEST"):
    dates = tuple(dt.date(2020, 1, 1) + dt.timedelta(days=i)
                  for i in range(len(closes)))
    return PriceSeries(symbol=symbol, dates=dates, closes=np.array(closes, float))


def test_parse_minimal_two_rows():
    series = parse_price_csv("date,close\n2020-01-02,100.0\n2020-01-03,101.0\n")
    assert len(series) == 2
    assert series.dates == (dt.date(2020, 1, 2), dt.date(2020, 1, 3))
    assert series.closes.tolist() == [100.0, 101.0]


def test_parse_sorts_unsorted_rows():
    series = parse_price_csv("date,close\n2020-01-03,101.0\n2020-01-02,100.0\n")
    assert series.dates[0] < series.dates[1]
    assert series.closes.tolist() == [100.0, 101.0]


def test_parse_rejects_negative_price():
    with pytest.raises(NonPositivePriceError):
        parse_price_csv("date,close\n2020-01-02,100.0\n2020-01-03,-5.0\n")


def test_parse_rejects_zero_price():
    with pytest.raises(NonPositivePriceError):
        parse_price_csv("date,close\n2020-01-02,0.0\n2020-01-03,5.0\n")


def test_parse_rejects_duplicate_dates():
    with pytest.raises(DuplicateDateError):
        parse_price_csv("date,close\n2020-01-02,100.0\n2020-01-02,101.0\n")
    with pytest.raises(DuplicateDateError, match=r"^duplicate date 2020-01-02$"):
        parse_return_csv("date,value\n2020-01-02,0.1\n2020-01-02,0.2\n")


def test_parse_rejects_single_row():
    with pytest.raises(TooShortError):
        parse_price_csv("date,close\n2020-01-02,100.0\n")


def test_parse_rejects_bad_date_and_bad_price():
    with pytest.raises(MalformedRowError):
        parse_price_csv("date,close\nnot-a-date,100.0\n2020-01-03,101.0\n")
    with pytest.raises(MalformedRowError):
        parse_price_csv("date,close\n2020-01-02,abc\n2020-01-03,101.0\n")
    with pytest.raises(MalformedRowError):
        parse_price_csv("date,close\n2020-01-02\n2020-01-03,101.0\n")


@pytest.mark.parametrize("parse", [parse_price_csv, parse_return_csv])
@pytest.mark.parametrize("text", ["20000103", "2000-W01-1", "2000-02-30",
                                  "0000-01-01", "2000-01-03x"])
def test_parse_rejects_non_strptime_dates(parse, text):
    # date.fromisoformat accepts the first two; strptime does not.
    with pytest.raises(MalformedRowError):
        parse(f"date,close\n{text},1.0\n2000-01-04,2.0\n")


@pytest.mark.parametrize("parse", [parse_price_csv, parse_return_csv])
@pytest.mark.parametrize("text", ["2000-1-3", "2000-01-03",
                                  "\uff12\uff10\uff10\uff10-01-03"])
def test_parse_accepts_strptime_dates(parse, text):
    series = parse(f"date,close\n{text},1.0\n2000-01-04,2.0\n")
    assert series.dates == (dt.date(2000, 1, 3), dt.date(2000, 1, 4))


def test_parse_custom_columns_and_delimiter():
    config = CsvConfig(delimiter=";", date_column=1, close_column=2,
                       date_format="%d/%m/%Y")
    text = "id;day;px\n1;02/01/2020;100.0\n2;03/01/2020;101.0\n"
    series = parse_price_csv(text, config)
    assert series.dates[0] == dt.date(2020, 1, 2)


def test_parse_serialize_round_trip():
    prices = random_walk_prices(250, seed=7, drift=0.0002, volatility=0.01)
    text = serialize_price_csv(prices)
    back = parse_price_csv(text, symbol=prices.symbol)
    assert len(back) == 250
    assert back.dates == prices.dates
    assert back.closes.tolist() == prices.closes.tolist()
    for d1, d2 in zip(back.dates, back.dates[1:]):
        assert d1 < d2


def test_log_returns_identity_price():
    returns = log_returns(make_prices([100.0, 100.0]))
    assert returns.values.tolist() == [0.0]
    assert returns.transform is Transform.RAW


def test_log_returns_of_e():
    returns = log_returns(make_prices([1.0, math.e]))
    assert returns.values[0] == pytest.approx(1.0, abs=1e-15)


def test_log_returns_frozen_value():
    returns = log_returns(make_prices([100.0, 110.0]))
    # ln(1.1) evaluated independently at high precision
    assert returns.values[0] == pytest.approx(0.09531017980432486, abs=1e-15)


def test_log_returns_dated_at_later_price():
    prices = make_prices([100.0, 101.0, 102.0])
    returns = log_returns(prices)
    assert returns.dates == prices.dates[1:]
    assert len(returns) == len(prices) - 1


def test_log_returns_telescope():
    prices = random_walk_prices(500, seed=3, volatility=0.02)
    returns = log_returns(prices)
    total = math.log(prices.closes[-1] / prices.closes[0])
    assert returns.values.sum() == pytest.approx(total, rel=1e-9)


def test_transform_absolute_and_squared():
    returns = log_returns(make_prices([100.0, 100.0 * math.exp(-0.02),
                                       100.0 * math.exp(-0.02) * math.exp(0.03)]))
    absolute = transform_returns(returns, Transform.ABSOLUTE)
    assert absolute.values == pytest.approx([0.02, 0.03])
    squared = transform_returns(returns, Transform.SQUARED)
    assert squared.values == pytest.approx([0.0004, 0.0009])
    assert absolute.dates == returns.dates


def test_transform_raw_is_identity():
    returns = log_returns(make_prices([100.0, 99.0, 101.0]))
    assert transform_returns(returns, Transform.RAW) is returns


def test_transform_twice_rejected():
    returns = log_returns(make_prices([100.0, 99.0, 101.0]))
    absolute = transform_returns(returns, Transform.ABSOLUTE)
    with pytest.raises(AlreadyTransformedError):
        transform_returns(absolute, Transform.SQUARED)
    # Raw on a transformed series is still the identity
    assert transform_returns(absolute, Transform.RAW) is absolute


def test_transform_idempotent_through_raw():
    returns = log_returns(make_prices([100.0, 99.0, 101.0, 98.0]))
    direct = transform_returns(returns, Transform.ABSOLUTE)
    via_raw = transform_returns(transform_returns(returns, Transform.RAW),
                                Transform.ABSOLUTE)
    assert direct.values.tolist() == via_raw.values.tolist()


def test_parse_return_csv_allows_negatives():
    returns = parse_return_csv("date,value\n2020-01-02,-0.01\n2020-01-03,0.02\n")
    assert returns.values.tolist() == [-0.01, 0.02]
    assert returns.transform is Transform.RAW


def test_price_series_requires_positive_and_ordered():
    with pytest.raises(NonPositivePriceError):
        make_prices([100.0, -1.0])
    dates = (dt.date(2020, 1, 2), dt.date(2020, 1, 1))
    with pytest.raises(ValueError):
        PriceSeries(symbol="X", dates=dates, closes=np.array([1.0, 2.0]))


DAY = dt.date(2020, 1, 2)


@pytest.mark.parametrize("build, message", [
    (lambda: PriceSeries(symbol="X", dates=(DAY,), closes=np.array([1.0, 2.0])),
     "dates and closes differ in length"),
    (lambda: PriceSeries(symbol="X", dates=(DAY, DAY - dt.timedelta(days=1)),
                         closes=np.array([1.0, 2.0])),
     "dates must be strictly increasing"),
    (lambda: ReturnSeries(source_symbol="X", transform=Transform.RAW,
                          dates=(DAY,), values=np.array([0.1, 0.2])),
     "dates and values differ in length"),
    (lambda: ReturnSeries(source_symbol="X", transform=Transform.SQUARED,
                          dates=(DAY,), values=np.array([-0.1])),
     "squared returns must be >= 0"),
    pytest.param(lambda: ReturnSeries(
        source_symbol="X", transform=Transform.RAW,
        dates=(DAY, DAY + dt.timedelta(days=1), DAY), values=np.zeros(3)),
        "dates must be strictly increasing", id="returns-dates-decrease"),
])
def test_malformed_series_raise_typed_input_error(build, message):
    with pytest.raises(InvalidSeriesError) as info:
        build()
    assert str(info.value) == message
    assert isinstance(info.value, InputError)
    assert isinstance(info.value, ValueError)  # what these sites raised before


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_return_series_rejects_non_finite_values(bad):
    dates = tuple(DAY + dt.timedelta(days=i) for i in range(3))
    with pytest.raises(InvalidSeriesError, match="1 of 3 values are not finite"):
        ReturnSeries(source_symbol="X", transform=Transform.RAW, dates=dates,
                     values=np.array([0.1, bad, 0.2]))


@pytest.mark.parametrize("build", [
    lambda dates: PriceSeries(symbol="X", dates=dates, closes=np.ones(3)),
    lambda dates: ReturnSeries(source_symbol="X", transform=Transform.RAW,
                               dates=dates, values=np.zeros(3)),
], ids=["prices", "returns"])
def test_repeated_date_raises_duplicate_date_error(build):
    dates = (DAY, DAY, DAY - dt.timedelta(days=1))
    with pytest.raises(DuplicateDateError, match=r"^duplicate date 2020-01-02$"):
        build(dates)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_price_series_rejects_non_finite_closes(bad):
    dates = tuple(DAY + dt.timedelta(days=i) for i in range(3))
    with pytest.raises(InvalidSeriesError, match="1 of 3 values are not finite"):
        PriceSeries(symbol="X", dates=dates, closes=np.array([100.0, bad, 101.0]))


@pytest.mark.parametrize("estimate", [
    lambda x: estimate_hurst_rs(x, build_partition_plan(
        250, PartitionPolicy.PRESET_250)),
    lambda x: estimate_hurst_dfa(x, DfaConfig(box_sizes=default_box_sizes(250))),
    lambda x: rs_at_scale(x, 25),
    lambda x: segment_stats(x),
    lambda x: dfa_fluctuation(x, 8),
], ids=["estimate_hurst_rs", "estimate_hurst_dfa", "rs_at_scale",
        "segment_stats", "dfa_fluctuation"])
def test_estimators_reject_series_that_are_not_1d(estimate):
    # 250 values of rank 2 used to fail inside numpy with a bare
    # ValueError or TypeError
    x = np.random.default_rng(0).normal(size=(2, 125))
    with pytest.raises(InvalidSeriesError,
                       match=r"^expected a 1-D series, got shape \(2, 125\)$"):
        estimate(x)
