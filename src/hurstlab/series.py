"""Dated price series ingestion and log-return transforms."""
from __future__ import annotations

import csv
import datetime as dt
import io
import math
import operator
from enum import Enum
from typing import NoReturn, Sequence

import numpy as np

from ._record import Record
from .errors import (
    AlreadyTransformedError,
    ConfigError,
    DuplicateDateError,
    InputError,
    InvalidSeriesError,
    MalformedRowError,
    NonPositivePriceError,
    TooShortError,
    require_instance,
    require_int,
)


class Transform(Enum):
    RAW = "raw"
    ABSOLUTE = "absolute"
    SQUARED = "squared"


def finite_values(series) -> np.ndarray:
    """The series as a 1-D float64 array; another rank, NaN or infinite
    values raise."""
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1:
        raise InvalidSeriesError(f"expected a 1-D series, got shape {x.shape}")
    bad = x.size - int(np.isfinite(x).sum())
    if bad:
        raise InvalidSeriesError(f"{bad} of {x.size} values are not finite")
    return x


class _DatedSeries(Record):
    """The shared part of a dated series: its last field is an array of
    finite values, one per date, held as a read-only copy of the array it
    is given. Dates strictly increase; a repeat is a duplicate. Series
    compare their other fields, then their arrays by value, and are
    unhashable."""

    def __post_init__(self):
        name = self._fields[-1]
        values = finite_values(self.__dict__[name]).copy()
        values.flags.writeable = False
        object.__setattr__(self, name, values)
        if len(self.dates) != values.size:
            raise InvalidSeriesError(f"dates and {name} differ in length")
        for d1, d2 in zip(self.dates, self.dates[1:]):
            if d2 == d1:
                raise DuplicateDateError(f"duplicate date {d1}")
            if d2 < d1:
                raise InvalidSeriesError("dates must be strictly increasing")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        *fields, values = self._values()
        *other_fields, other_values = other._values()
        return fields == other_fields and np.array_equal(values, other_values)

    __hash__ = None

    def __len__(self) -> int:
        return self.__dict__[self._fields[-1]].size


class PriceSeries(_DatedSeries):
    """Daily closing prices, strictly ordered by date."""

    dates: tuple[dt.date, ...]
    closes: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        closes = self.closes
        if closes.size < 2:
            raise TooShortError(f"need at least 2 observations, got {closes.size}")
        if not np.all(closes > 0.0):
            bad = int(np.argmax(~(closes > 0.0)))
            raise NonPositivePriceError(
                f"close {closes[bad]} on {self.dates[bad]} is not positive"
            )


class ReturnSeries(_DatedSeries):
    """Log-returns of a price series under one of three transforms.

    Each value is dated at the later of the two prices it compares, so a
    series of N prices yields N-1 returns.
    """

    transform: Transform
    dates: tuple[dt.date, ...]
    values: np.ndarray

    def __post_init__(self):
        require_instance(self.transform, Transform, "transform")
        super().__post_init__()
        if self.transform in (Transform.ABSOLUTE, Transform.SQUARED):
            if self.values.size and float(self.values.min()) < 0.0:
                raise InvalidSeriesError(
                    f"{self.transform.value} returns must be >= 0")


class CsvConfig(Record):
    """Column mapping and formats for price CSV parsing."""

    delimiter: str = ","
    date_column: int = 0
    close_column: int = 1
    date_format: str = "%Y-%m-%d"

    def __post_init__(self):
        if not isinstance(self.delimiter, str) or len(self.delimiter) != 1:
            raise ConfigError(f"delimiter must be one character, got "
                              f"{self.delimiter!r}")
        if not isinstance(self.date_format, str):
            raise ConfigError(f"date_format must be a string, got "
                              f"{self.date_format!r}")
        for name in ("date_column", "close_column"):
            object.__setattr__(self, name, require_int(getattr(self, name), name))
        if self.date_column < 0 or self.close_column < 0:
            raise ConfigError("column indices must be >= 0")


_ZERO_DIGITS = str.maketrans("123456789", "000000000")


def _iso_shaped(cells: Sequence[str]) -> bool:
    """Whether every cell has the ASCII YYYY-MM-DD shape, on which
    date.fromisoformat and strptime with the default ISO format agree;
    each also reads spellings the other rejects (20000103, 2000-1-3). The
    digits of the joined cells map to 0 in one pass (a regex repeat holds
    ~270 bytes a row)."""
    return ("\n".join(cells).translate(_ZERO_DIGITS)
            == "\n".join(["0000-00-00"] * len(cells)))


def _date_reader(cells: Sequence[str], fmt: str):
    """The reader of a column of date cells: date.fromisoformat, ~10x
    faster, when fmt is the default ISO format and every cell has its
    shape, else datetime.strptime(text, fmt).date()."""
    if fmt == CsvConfig.date_format and _iso_shaped(cells):
        return dt.date.fromisoformat
    return lambda text: dt.datetime.strptime(text, fmt).date()


def _tokenise(raw_text: str, delimiter: str) -> list[list[str]]:
    """csv.reader's rows: a split of each line on the delimiter unless the
    text holds a quote, CR or NUL, the delimiter is one of those or LF,
    or a line is longer than the csv field limit."""
    lines = raw_text.split("\n")
    if (delimiter not in '"\r\n\x00' and not any(c in raw_text for c in '"\r\x00')
            and max(map(len, lines)) <= csv.field_size_limit()):
        return [line.split(delimiter) for line in lines]
    reader = csv.reader(io.StringIO(raw_text), delimiter=delimiter)
    try:
        return list(reader)
    except csv.Error as exc:
        raise MalformedRowError(f"line {reader.line_num}: {exc}") from exc


def _parse_rows(raw_text: str, config: CsvConfig, what: str,
                positive: bool) -> tuple[tuple[dt.date, ...], np.ndarray]:
    """Dates and values of the data rows, sorted by date. Blank rows are
    skipped and the first row left is the header. The columns are
    converted whole; only if that fails does one walk over the rows name
    the first bad row."""
    if not isinstance(raw_text, str):
        raise InputError(f"CSV text must be a str, got {type(raw_text).__name__}")
    require_instance(config, CsvConfig, "CSV config")
    rows = [row for row in _tokenise(raw_text, config.delimiter)
            if "".join(row).strip()]
    if not rows:
        raise TooShortError("empty input")
    del rows[0]
    try:
        date_text = [row[config.date_column].strip() for row in rows]
        value_text = [row[config.close_column].strip() for row in rows]
        dates = tuple(map(_date_reader(date_text, config.date_format),
                          date_text))
        values = np.fromiter(map(float, value_text), np.float64, len(rows))
        failed = not np.isfinite(values).all() or positive and (values <= 0.0).any()
    except (IndexError, ValueError):
        failed = True
    if failed:
        _raise_row_error(rows, config, what, positive)
    if not all(map(operator.lt, dates, dates[1:])):
        order = sorted(range(len(dates)), key=dates.__getitem__)
        dates, values = tuple(dates[i] for i in order), values[order]
    return dates, values


def _raise_row_error(rows: list[list[str]], config: CsvConfig, what: str,
                     positive: bool) -> NoReturn:
    """Raise for the first data row (the header is row 1) that fails a
    check, in order: column count, date, value (a finite float, and > 0
    when positive is set). These are the column pass's checks row by row,
    so some row fails whenever that pass does."""
    needed = max(config.date_column, config.close_column)
    read_date = _date_reader([row[config.date_column].strip() for row in rows
                              if len(row) > needed], config.date_format)
    for lineno, row in enumerate(rows, start=2):
        if len(row) <= needed:
            raise MalformedRowError(f"row {lineno}: expected at least "
                                    f"{needed + 1} columns, got {len(row)}")
        date_text = row[config.date_column].strip()
        value_text = row[config.close_column].strip()
        try:
            date = read_date(date_text)
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


def parse_price_csv(raw_text: str, config: CsvConfig = CsvConfig()) -> PriceSeries:
    """Parse delimiter-separated text with a header row into a PriceSeries.

    Rows are sorted by date if the input is unsorted; duplicate dates,
    non-positive prices and unparseable rows are hard errors.
    """
    dates, closes = _parse_rows(raw_text, config, "price", positive=True)
    if len(dates) < 2:
        raise TooShortError(f"need at least 2 rows, got {len(dates)}")
    return PriceSeries(dates=dates, closes=closes)


def parse_return_csv(raw_text: str, config: CsvConfig = CsvConfig()) -> ReturnSeries:
    """Parse a (date, value) CSV into a raw ReturnSeries.

    Same layout rules as parse_price_csv (the close column holds the
    return value) but values may be negative.
    """
    dates, values = _parse_rows(raw_text, config, "value", positive=False)
    if not dates:
        raise TooShortError("no data rows")
    return ReturnSeries(transform=Transform.RAW, dates=dates, values=values)


def serialize_dated_csv(dates: Sequence[dt.date], values: np.ndarray,
                        name: str) -> str:
    """A date,<name> header, then one ISO date and value repr per row."""
    rows = map("{},{!r}".format, map(dt.date.isoformat, dates), values.tolist())
    return "\n".join([f"date,{name}", *rows]) + "\n"


def serialize_price_csv(series: PriceSeries) -> str:
    """Inverse of parse_price_csv for the default CsvConfig."""
    return serialize_dated_csv(series.dates, series.closes, "close")


def log_returns(series: PriceSeries) -> ReturnSeries:
    """Raw log-returns: value at t is ln(close[t+1]) - ln(close[t]).

    The values telescope, so their sum equals ln(last/first).
    """
    log_close = np.log(require_instance(series, PriceSeries,
                                        "price series").closes)
    return ReturnSeries(
        transform=Transform.RAW,
        dates=series.dates[1:],
        values=np.diff(log_close),
    )


def transform_returns(returns: ReturnSeries, kind: Transform) -> ReturnSeries:
    """Apply absolute or squared transform to a raw return series.

    Asking for RAW is the identity on any input; applying a non-raw
    transform to an already transformed series raises.
    """
    require_instance(returns, ReturnSeries, "return series")
    if require_instance(kind, Transform, "transform") is Transform.RAW:
        return returns
    if returns.transform is not Transform.RAW:
        raise AlreadyTransformedError(
            f"cannot apply {kind.value} to {returns.transform.value} returns"
        )
    if kind is Transform.ABSOLUTE:
        values = np.abs(returns.values)
    else:
        with np.errstate(over="ignore"):  # ReturnSeries rejects the inf
            values = returns.values * returns.values
    return ReturnSeries(
        transform=kind,
        dates=returns.dates,
        values=values,
    )
