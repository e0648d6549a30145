"""Dated price series ingestion and log-return transforms."""
from __future__ import annotations

import csv
import datetime as dt
import io
import math
import operator
import re
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import (
    AlreadyTransformedError,
    ConfigError,
    DuplicateDateError,
    InvalidSeriesError,
    MalformedRowError,
    NonPositivePriceError,
    TooShortError,
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


def _check_dates(dates: tuple[dt.date, ...]) -> None:
    """Raise unless the dates strictly increase; a repeat is a duplicate."""
    for d1, d2 in zip(dates, dates[1:]):
        if d2 == d1:
            raise DuplicateDateError(f"duplicate date {d1}")
        if d2 < d1:
            raise InvalidSeriesError("dates must be strictly increasing")


@dataclass(frozen=True)
class PriceSeries:
    """Daily closing prices, strictly ordered by date."""

    dates: tuple[dt.date, ...]
    closes: np.ndarray

    def __post_init__(self):
        closes = finite_values(self.closes)
        closes.flags.writeable = False
        object.__setattr__(self, "closes", closes)
        if len(self.dates) != closes.size:
            raise InvalidSeriesError("dates and closes differ in length")
        _check_dates(self.dates)
        if closes.size < 2:
            raise TooShortError(f"need at least 2 observations, got {closes.size}")
        if not np.all(closes > 0.0):
            bad = int(np.argmax(~(closes > 0.0)))
            raise NonPositivePriceError(
                f"close {closes[bad]} on {self.dates[bad]} is not positive"
            )

    def __len__(self) -> int:
        return self.closes.size


@dataclass(frozen=True)
class ReturnSeries:
    """Log-returns of a price series under one of three transforms.

    Each value is dated at the later of the two prices it compares, so a
    series of N prices yields N-1 returns.
    """

    transform: Transform
    dates: tuple[dt.date, ...]
    values: np.ndarray

    def __post_init__(self):
        values = finite_values(self.values)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if len(self.dates) != values.size:
            raise InvalidSeriesError("dates and values differ in length")
        _check_dates(self.dates)
        if self.transform in (Transform.ABSOLUTE, Transform.SQUARED):
            if values.size and float(values.min()) < 0.0:
                raise InvalidSeriesError(
                    f"{self.transform.value} returns must be >= 0")

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class CsvConfig:
    """Column mapping and formats for price CSV parsing."""

    delimiter: str = ","
    date_column: int = 0
    close_column: int = 1
    date_format: str = "%Y-%m-%d"

    def __post_init__(self):
        if len(self.delimiter) != 1:
            raise ConfigError(f"delimiter must be one character, got "
                              f"{self.delimiter!r}")
        if self.date_column < 0 or self.close_column < 0:
            raise ConfigError("column indices must be >= 0")


#: An ASCII YYYY-MM-DD date; strptime("%Y-%m-%d") accepts more spellings
#: (2000-1-3, non-ASCII digits), and date.fromisoformat others (20000103,
#: 2000-W01-1), so only this exact shape takes the fast path.
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")

#: Maps every ASCII digit to 0: a column of ASCII cells, joined by
#: newlines, has _ISO_DATE's shape throughout when it maps to copies of
#: "0000-00-00" (a regex repeat over the column holds ~270 bytes a row).
_ZERO_DIGITS = str.maketrans("123456789", "000000000")

#: The ASCII characters str.strip() removes, a quote and NUL (which the
#: csv module rejects before Python 3.11): a data row holding one of them
#: is left to the csv module and the row loop.
_UNSAFE = " \t\r\x0b\x0c\x1c\x1d\x1e\x1f\"\x00"


def _parse_date(text: str, fmt: str) -> dt.date:
    """datetime.strptime(text, fmt).date(), ~10x faster on ISO dates."""
    if fmt == "%Y-%m-%d" and _ISO_DATE.fullmatch(text):
        return dt.date.fromisoformat(text)
    return dt.datetime.strptime(text, fmt).date()


def _parse_rows(raw_text: str, config: CsvConfig, what: str,
                positive: bool) -> tuple[tuple[dt.date, ...], np.ndarray]:
    """Dates and values of the data rows after the header, sorted by date:
    the columnar pass when it accepts the text, else the row loop."""
    columns = _parse_columns(raw_text, config, positive)
    if columns is not None:
        return columns
    entries = _parse_row_loop(raw_text, config, what, positive)
    return (tuple(date for date, _ in entries),
            np.array([value for _, value in entries], dtype=np.float64))


def _parse_columns(raw_text: str, config: CsvConfig, positive: bool
                   ) -> tuple[tuple[dt.date, ...], np.ndarray] | None:
    """What _parse_row_loop gives, a column at a time, or None when the
    text may hold anything the loop treats otherwise than a plain split
    of each line: a date format other than %Y-%m-%d, a blank header or
    one with a quote, a carriage return or NUL, or a data row with one of
    those, whitespace, non-ASCII text, too few cells or a cell above the
    csv field limit. It is also None when any row would make the loop
    raise or reorder: a date not of the ISO shape or not a calendar date,
    dates not strictly increasing, or a value float() rejects, not finite
    or (if positive) not above 0. Cells go through the loop's own
    date.fromisoformat and float, so an accepted text gives the loop's
    values bit for bit."""
    delimiter = config.delimiter
    if config.date_format != "%Y-%m-%d" or delimiter in "\r\n\"\x00":
        return None
    header, _, data = raw_text.partition("\n")
    if (not header.replace(delimiter, "").strip()
            or any(c in header for c in "\r\"\x00") or not data.isascii()
            or any(c in data for c in _UNSAFE if c != delimiter)):
        return None
    lines = data.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or max(map(len, lines)) > csv.field_size_limit():
        return None
    rows = [line.split(delimiter) for line in lines]
    if min(map(len, rows)) <= max(config.date_column, config.close_column):
        return None
    columns = list(zip(*rows))
    date_text = columns[config.date_column]
    value_text = columns[config.close_column]
    if ("\n".join(date_text).translate(_ZERO_DIGITS)
            != "\n".join(["0000-00-00"] * len(date_text))):
        return None
    try:
        dates = tuple(map(dt.date.fromisoformat, date_text))
        values = np.fromiter(map(float, value_text), np.float64, len(value_text))
    except ValueError:
        return None
    if (not all(map(operator.lt, dates, dates[1:]))
            or not np.isfinite(values).all()
            or positive and not (values > 0.0).all()):
        return None
    return dates, values


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
    log_close = np.log(series.closes)
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
    if kind is Transform.RAW:
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
