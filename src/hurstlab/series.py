"""Dated price series ingestion and log-return transforms."""
from __future__ import annotations

import csv
import datetime as dt
import io
import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

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
    """Daily closing prices for one symbol, strictly ordered by date."""

    symbol: str
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

    @property
    def observations(self) -> Iterator[tuple[dt.date, float]]:
        return zip(self.dates, self.closes.tolist())


@dataclass(frozen=True)
class ReturnSeries:
    """Log-returns of a price series under one of three transforms.

    Each value is dated at the later of the two prices it compares, so a
    series of N prices yields N-1 returns.
    """

    source_symbol: str
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


def _parse_date(text: str, fmt: str) -> dt.date:
    """datetime.strptime(text, fmt).date(), ~10x faster on ISO dates."""
    if fmt == "%Y-%m-%d" and _ISO_DATE.fullmatch(text):
        return dt.date.fromisoformat(text)
    return dt.datetime.strptime(text, fmt).date()


def _parse_rows(raw_text: str, config: CsvConfig, what: str,
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


def parse_price_csv(raw_text: str, config: CsvConfig = CsvConfig(),
                    symbol: str = "SERIES") -> PriceSeries:
    """Parse delimiter-separated text with a header row into a PriceSeries.

    Rows are sorted by date if the input is unsorted; duplicate dates,
    non-positive prices and unparseable rows are hard errors.
    """
    observations = _parse_rows(raw_text, config, "price", positive=True)
    if len(observations) < 2:
        raise TooShortError(f"need at least 2 rows, got {len(observations)}")
    dates = tuple(date for date, _ in observations)
    closes = np.array([close for _, close in observations])
    return PriceSeries(symbol=symbol, dates=dates, closes=closes)


def parse_return_csv(raw_text: str, config: CsvConfig = CsvConfig(),
                     symbol: str = "SERIES") -> ReturnSeries:
    """Parse a (date, value) CSV into a raw ReturnSeries.

    Same layout rules as parse_price_csv (the close column holds the
    return value) but values may be negative.
    """
    entries = _parse_rows(raw_text, config, "value", positive=False)
    if not entries:
        raise TooShortError("no data rows")
    return ReturnSeries(
        source_symbol=symbol,
        transform=Transform.RAW,
        dates=tuple(date for date, _ in entries),
        values=np.array([value for _, value in entries]),
    )


def serialize_price_csv(series: PriceSeries, config: CsvConfig = CsvConfig()) -> str:
    """Inverse of parse_price_csv for the default two-column layout."""
    lines = ["date,close"]
    for date, close in series.observations:
        lines.append(f"{date.strftime(config.date_format)},{close!r}")
    return "\n".join(lines) + "\n"


def log_returns(series: PriceSeries) -> ReturnSeries:
    """Raw log-returns: value at t is ln(close[t+1]) - ln(close[t]).

    The values telescope, so their sum equals ln(last/first).
    """
    log_close = np.log(series.closes)
    return ReturnSeries(
        source_symbol=series.symbol,
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
        values = returns.values * returns.values
    return ReturnSeries(
        source_symbol=returns.source_symbol,
        transform=kind,
        dates=returns.dates,
        values=values,
    )
