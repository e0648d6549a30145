"""Exception hierarchy shared by all hurstlab modules.

Three families map onto the CLI exit codes: InputError -> 2,
ComputationError -> 3, ConfigError -> 4. The errors raised where
malformed series, curves and generator specs used to raise a bare
ValueError also derive from ValueError, so a caller catching ValueError
still catches them.
"""
import numbers
import operator
import reprlib


class HurstLabError(Exception):
    """Base class for all hurstlab errors."""


class InputError(HurstLabError):
    """The input data itself is unusable."""


class ComputationError(HurstLabError):
    """The requested analysis cannot produce a result on this input."""


class ConfigError(HurstLabError):
    """The requested configuration is invalid or inconsistent."""


# -- input parsing ----------------------------------------------------------

class MalformedRowError(InputError):
    """A CSV row could not be parsed into (date, price)."""


class NonPositivePriceError(InputError):
    """A close price was zero or negative."""


class DuplicateDateError(InputError):
    """Two observations share the same date."""


class TooShortError(InputError):
    """Fewer than two observations."""


class InvalidSeriesError(InputError, ValueError):
    """A series' dates and values differ in length or are out of order, a
    value is NaN or infinite, or transformed values break the sign rule."""


# -- estimation -------------------------------------------------------------

class DegenerateCurveError(ComputationError):
    """Scaling curve has too few points or no spread in log(scale)."""


class AllSegmentsDegenerateError(ComputationError):
    """Every segment at a scale had zero standard deviation."""


class BoxTooLargeError(ComputationError):
    """Fewer than two detrending boxes fit into the series."""


class SeriesTooShortError(ComputationError):
    """Series shorter than the rolling window."""


class EmptyTraceError(ComputationError):
    """Rolling trace holds no usable measurements."""


class TraceTooShortError(ComputationError):
    """Rolling trace too short to classify."""


class NonPositiveHError(ComputationError):
    """Fractal dimension is undefined for h <= 0."""


# -- downfall analysis ------------------------------------------------------

class NoDownfallsError(ComputationError):
    """Operation requires at least one downfall episode."""


class TooFewError(ComputationError):
    """Not enough values for the requested statistic."""


class ZeroVarianceError(ComputationError):
    """Kurtosis is undefined for a zero-variance sample."""


class EmptyScanError(ComputationError):
    """Kurtosis scan produced no usable entries."""


# -- generation -------------------------------------------------------------

class FactorizationFailureError(ComputationError):
    """The circulant embedding of the fGn autocovariance has an eigenvalue
    below the rounding bound. The exact embedding is non-negative
    definite, so this is a limit of floating-point rounding very near
    h = 1."""


# -- configuration ----------------------------------------------------------

class AlreadyTransformedError(ConfigError):
    """Transforms apply only to raw return series."""


class InvalidPlanError(ConfigError):
    """Partition plan violates its invariants."""


class InvalidCurveError(ConfigError, ValueError):
    """A scaling curve's scales are malformed, or the curve is of the wrong
    kind for the statistic asked of it."""


class UnknownKindError(ConfigError, ValueError):
    """A generator spec names no known kind."""


class HOutOfRangeError(ConfigError):
    """Hurst parameter must lie strictly inside (0, 1)."""


class LengthTooLargeError(ConfigError):
    """Requested length exceeds the synthetic calendar, whose last date is
    date.max."""


#: The rejected value as the checks below print it: its repr, with a long
#: string, number, sequence or other object cut around "..." so that a
#: message stays short. maxother is raised from 30 so that an enum member,
#: or a record such as a partition plan, prints whole.
_bounded = reprlib.Repr()
_bounded.maxother = 160


def require_int(value, what: str, error: type[ConfigError] = ConfigError
                ) -> int:
    """The value as an int, numpy integers included; anything else raises."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got "
                    f"{_bounded.repr(value)}") from None


def require_float(value, what: str, error: type[ConfigError] = ConfigError
                  ) -> float:
    """The value as a float, numpy reals included; a str, None, a sequence
    or anything else raises, and so does an int too large for a float."""
    if isinstance(value, numbers.Real):
        try:
            return float(value)
        except OverflowError:
            pass
    raise error(f"{what} must be a real number, got {_bounded.repr(value)}")


def require_floats(values, what: str, error: type[ConfigError] = ConfigError
                   ) -> tuple[float, ...]:
    """The values as a tuple of floats, each by require_float; anything not
    iterable raises too."""
    try:
        items = tuple(values)
    except TypeError:
        raise error(f"{what} must be real numbers, got "
                    f"{_bounded.repr(values)}") from None
    return tuple(require_float(v, what, error) for v in items)


def require_ints(values, what: str, error: type[ConfigError] = ConfigError
                 ) -> tuple[int, ...]:
    """The values as a tuple of ints, each by require_int; anything not
    iterable raises too."""
    try:
        items = tuple(values)
    except TypeError:
        raise error(f"{what} must be integers, got "
                    f"{_bounded.repr(values)}") from None
    return tuple(require_int(v, what, error) for v in items)


def require_instance(value, kind: type, what: str,
                     error: type[ConfigError] = ConfigError):
    """The value if it is a kind (a member of it, for an Enum); anything
    else, the name or value of a member included, raises."""
    if not isinstance(value, kind):
        raise error(f"unknown {what} {_bounded.repr(value)}, "
                    f"expected a {kind.__name__}")
    return value


def require_equal_lengths(record, *columns: str) -> None:
    """Raise InvalidSeriesError unless the record's columns, fields named
    in order, have one length."""
    lengths = [len(getattr(record, name)) for name in columns]
    if len(set(lengths)) > 1:
        raise InvalidSeriesError(
            f"{type(record).__name__} columns differ in length: "
            + ", ".join(map("{} {}".format, columns, lengths)))
