import csv
import datetime as dt
import io
import math
import re

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from hurstlab.dfa import (
    DfaConfig,
    default_box_sizes,
    dfa_fluctuation,
    estimate_hurst_dfa,
)
from hurstlab.errors import (
    AlreadyTransformedError,
    DuplicateDateError,
    HurstLabError,
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


def make_prices(closes):
    dates = tuple(dt.date(2020, 1, 1) + dt.timedelta(days=i)
                  for i in range(len(closes)))
    return PriceSeries(dates=dates, closes=np.array(closes, float))


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
    back = parse_price_csv(text)
    assert len(back) == 250
    assert back.dates == prices.dates
    assert back.closes.tolist() == prices.closes.tolist()
    for d1, d2 in zip(back.dates, back.dates[1:]):
        assert d1 < d2


@given(dates=st.lists(st.dates(), min_size=2, max_size=20, unique=True),
       closes=st.lists(st.floats(min_value=5e-324, max_value=1.7e308),
                       min_size=20, max_size=20))
@example(dates=[dt.date(999, 1, 1), dt.date(1000, 1, 1)], closes=[1.0] * 20)
@example(dates=[dt.date(1, 1, 1), dt.date(9999, 12, 31)], closes=[0.1] * 20)
def test_serialize_parse_round_trip_any_year(dates, closes):
    # ISO dates throughout, so years below 1000 keep their four digits
    series = PriceSeries(dates=tuple(sorted(dates)),
                         closes=np.array(closes[:len(dates)]))
    back = parse_price_csv(serialize_price_csv(series))
    assert back.dates == series.dates
    assert back.closes.tolist() == series.closes.tolist()


#: An ASCII YYYY-MM-DD date; strptime("%Y-%m-%d") accepts more spellings
#: (2000-1-3, non-ASCII digits), and date.fromisoformat others (20000103,
#: 2000-W01-1), so only this exact shape takes the fast path.
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def _parse_date(text: str, fmt: str) -> dt.date:
    """datetime.strptime(text, fmt).date(), ~10x faster on ISO dates."""
    if fmt == "%Y-%m-%d" and _ISO_DATE.fullmatch(text):
        return dt.date.fromisoformat(text)
    return dt.datetime.strptime(text, fmt).date()


def _parse_row_loop(raw_text: str, config: CsvConfig, what: str,
                    positive: bool) -> list[tuple[dt.date, float]]:
    """Date-sorted (date, value) pairs of the data rows after the header.

    Each row is checked in order: column count, date, value (a finite
    float, and > 0 when positive is set).
    """
    reader = csv.reader(io.StringIO(raw_text), delimiter=config.delimiter)
    try:
        rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    except csv.Error as exc:
        raise MalformedRowError(f"line {reader.line_num}: {exc}") from exc
    if not rows:
        raise TooShortError("empty input")
    needed = max(config.date_column, config.close_column)
    entries: list[tuple[dt.date, float]] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) <= needed:
            raise MalformedRowError(f"row {lineno}: expected at least "
                                    f"{needed + 1} columns, got {len(row)}")
        date_text = row[config.date_column].strip()
        value_text = row[config.close_column].strip()
        try:
            date = _parse_date(date_text, config.date_format)
        except ValueError as exc:
            raise MalformedRowError(f"row {lineno}: bad date {date_text!r}") from exc
        try:
            value = float(value_text)
        except ValueError as exc:
            raise MalformedRowError(f"row {lineno}: bad {what} {value_text!r}") from exc
        if not math.isfinite(value):
            raise MalformedRowError(f"row {lineno}: non-finite {what} {value_text!r}")
        if positive and value <= 0.0:
            raise NonPositivePriceError(f"row {lineno}: close {value} on {date}")
        entries.append((date, value))
    entries.sort(key=lambda pair: pair[0])
    return entries


def reference_parse(parse, text, config):
    """What parse gives, read row by row by the csv module with the row
    loop and date reader hurstlab used before its columnar parser: the
    reference for that parser."""
    positive = parse is parse_price_csv
    entries = _parse_row_loop(text, config, "price" if positive else "value",
                              positive)
    dates = tuple(date for date, _ in entries)
    values = np.array([value for _, value in entries], dtype=np.float64)
    if positive:
        if len(dates) < 2:
            raise TooShortError(f"need at least 2 rows, got {len(dates)}")
        return PriceSeries(dates=dates, closes=values)
    if not dates:
        raise TooShortError("no data rows")
    return ReturnSeries(transform=Transform.RAW, dates=dates, values=values)


#: Cells, line ends and characters that the row loop rejects, reads
#: otherwise than a plain split of a line, or reads through strptime or a
#: stripped cell.
_ODD_DATES = ["20000103", "2000-01-03T00", "+2000-01-03", "0000-01-01",
              "2000-02-30", "2000-1-3", "", " 2000-01-03", "2000-01-03 ",
              '"2000-01-03"', "2000-01-03\x85", "\uff12000-01-03", "NaT",
              "31/02/2000", "1/2/2000", "03/01/2000", " 03/01/2000\x1c"]
_ODD_VALUES = ["1_0", "\u0661\u0662", ".5", "5.", "Infinity", "nan", "-inf",
               "0x10", "1e400", "1e-400", "0", "-0.0", "-2.5", "", " 1.5",
               "1.5 ", '"1.5"', '"1,5"', "\x851.5", "1.5\x85", "1\x00",
               "\x1c1.5", "1.5\x1f"]
_ODD_ENDS = ["\r\n", "\r", "\n\n", "\n \n", "\n,\n", "\x85\n"]
_JUNK = ['"', "\r", "\x00", "\x85", "\x0c", "\x1c", " {} ", "\n{}\n",
         "\n{}{}\n"]

#: (delimiter, date column, close column, date format)
_LAYOUTS = [(",", 0, 1, "%Y-%m-%d"), (",", 0, 1, "%Y-%m-%d"),
            (";", 2, 0, "%Y-%m-%d"), ("\t", 1, 2, "%Y-%m-%d"),
            (";", 2, 0, "%d/%m/%Y")]


@st.composite
def csv_texts(draw):
    """(text, config) of a small date/value CSV on one of five layouts:
    dates in order with float values, and in half of the texts now and
    then an odd cell, line end or header, a missing cell, a value out of
    range, a repeated or swapped date, or junk characters inserted
    anywhere.

    A text of n dates makes the same number of choices whatever they
    are: every choice is drawn, plain texts ignore the odd ones, and
    repeated dates are dropped rather than redrawn. Hypothesis's mutator
    copies one drawn value over another of the same strategy and replays
    the rest; where a value decided how many draws followed, or a copied
    date was redrawn as a repeat, the replay ran out of choices and the
    text was discarded (about 300 per 500 kept)."""
    delimiter, date_column, close_column, date_format = draw(
        st.sampled_from(_LAYOUTS))
    width = max(date_column, close_column) + 1 + draw(st.integers(0, 1))
    dates = sorted(set(draw(st.lists(st.dates(), min_size=1, max_size=12))))
    swap, i, repeat = (draw(st.integers(0, 4)) == 0,
                       draw(st.integers(0, max(len(dates) - 2, 0))),
                       draw(st.booleans()))
    if len(dates) > 1 and swap:
        dates[i + 1] = dates[i] if repeat else dates[i + 1]
        dates[i], dates[i + 1] = dates[i + 1], dates[i]
    # half of the texts are plain, so that most of them parse
    plain = draw(st.booleans())

    def pick(usual, cases):
        """usual, or in a text that is not plain now and then one of the
        cases."""
        odd, case = draw(st.integers(0, 9)) == 0, draw(st.sampled_from(cases))
        return case if odd and not plain else usual

    header = delimiter.join(f"c{k}" for k in range(width))
    lines = [pick(header, [header, "", "date", '"date","close","x"',
                           " " + delimiter, "d\x00te"])]
    for date in dates:
        cells = ["x"] * (width - pick(0, [1]))
        value = repr(pick(draw(st.floats(min_value=5e-324, max_value=1e308)),
                          [draw(st.floats(min_value=-1e6, max_value=1e6))]))
        date_text = (date.isoformat() if date_format == "%Y-%m-%d" else
                     f"{date.day:02}/{date.month:02}/{date.year:04}")
        for column, text, cases in (
                (date_column, date_text, _ODD_DATES),
                (close_column, value, _ODD_VALUES)):
            text = pick(text, cases)
            if column < len(cells):
                cells[column] = text
        lines.append(delimiter.join(cells))
    ends = [pick("\n", _ODD_ENDS) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text[:-len(ends[-1])]
    for _ in range(3):
        at, junk = (draw(st.integers(0, len(text))),
                    draw(st.sampled_from(_JUNK)).format(delimiter, delimiter))
        if not plain and draw(st.integers(0, 1)):
            text = text[:at] + junk + text[at:]
    return text, CsvConfig(delimiter=delimiter, date_column=date_column,
                           close_column=close_column, date_format=date_format)


def parse_outcome(parse, text, config):
    """The parsed dates and value bits, or the error's type and message."""
    try:
        parsed = parse(text, config)
    except HurstLabError as exc:
        return type(exc), str(exc)
    values = parsed.closes if isinstance(parsed, PriceSeries) else parsed.values
    return parsed.dates, values.tobytes()


@given(case=csv_texts(), parse=st.sampled_from([parse_price_csv,
                                                parse_return_csv]))
@example(case=("date,close\n2000-01-03,1.5\n2000-01-04,2.5\n", CsvConfig()),
         parse=parse_price_csv)
@example(case=("date,close\n2000-01-03,\x1c1.5\n", CsvConfig()),
         parse=parse_return_csv)
@settings(max_examples=500, deadline=None)
def test_columnar_parse_equals_row_loop(case, parse):
    text, config = case
    event("csv.reader" if any(c in text for c in '"\r\x00') else "split")
    got = parse_outcome(parse, text, config)
    event("parsed" if isinstance(got[0], tuple) else got[0].__name__)
    assert got == parse_outcome(
        lambda *args: reference_parse(parse, *args), text, config)


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


_DATES = tuple(dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(3))


@pytest.mark.parametrize("build", [
    lambda values: PriceSeries(_DATES, values),
    lambda values: ReturnSeries(Transform.RAW, _DATES, values),
])
def test_series_own_a_copy_of_the_callers_array(build):
    values = np.array([1.0, 2.0, 3.0])
    series = build(values)
    owned = series._values()[-1]
    assert not owned.flags.writeable
    values[0] = 5.0  # the caller's array stays writable
    assert owned.tolist() == [1.0, 2.0, 3.0]
    assert not np.shares_memory(owned, values)
    with pytest.raises(ValueError, match="read-only"):
        owned[0] = 5.0


@pytest.mark.parametrize("build", [
    lambda values, dates=_DATES: PriceSeries(dates, values),
    lambda values, dates=_DATES: ReturnSeries(Transform.RAW, dates, values),
])
def test_series_compare_by_value(build):
    values = np.array([1.0, 2.0, 3.0])
    series = build(values)
    assert series == build(values.copy()) == build([1.0, 2.0, 3.0])
    assert not series != build(values.copy())
    assert series != build(np.array([1.0, 2.0, 3.5]))
    later = tuple(d + dt.timedelta(days=1) for d in _DATES)
    assert series != build(values, dates=later)
    assert series != (_DATES, values)
    with pytest.raises(TypeError, match="unhashable"):
        hash(series)


def test_return_series_compare_their_transform():
    values = np.array([0.1, 0.2, 0.3])
    assert (ReturnSeries(Transform.ABSOLUTE, _DATES, values)
            != ReturnSeries(Transform.SQUARED, _DATES, values))


def test_price_series_requires_positive_and_ordered():
    with pytest.raises(NonPositivePriceError):
        make_prices([100.0, -1.0])
    dates = (dt.date(2020, 1, 2), dt.date(2020, 1, 1))
    with pytest.raises(ValueError):
        PriceSeries(dates=dates, closes=np.array([1.0, 2.0]))


DAY = dt.date(2020, 1, 2)


@pytest.mark.parametrize("build, message", [
    (lambda: PriceSeries(dates=(DAY,), closes=np.array([1.0, 2.0])),
     "dates and closes differ in length"),
    (lambda: PriceSeries(dates=(DAY, DAY - dt.timedelta(days=1)),
                         closes=np.array([1.0, 2.0])),
     "dates must be strictly increasing"),
    (lambda: ReturnSeries(transform=Transform.RAW,
                          dates=(DAY,), values=np.array([0.1, 0.2])),
     "dates and values differ in length"),
    (lambda: ReturnSeries(transform=Transform.SQUARED,
                          dates=(DAY,), values=np.array([-0.1])),
     "squared returns must be >= 0"),
    pytest.param(lambda: ReturnSeries(
        transform=Transform.RAW,
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
        ReturnSeries(transform=Transform.RAW, dates=dates,
                     values=np.array([0.1, bad, 0.2]))


@pytest.mark.parametrize("build", [
    lambda dates: PriceSeries(dates=dates, closes=np.ones(3)),
    lambda dates: ReturnSeries(transform=Transform.RAW,
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
        PriceSeries(dates=dates, closes=np.array([100.0, bad, 101.0]))


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
