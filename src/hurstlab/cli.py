"""Command-line front end: hurst, dfa, rolling, vstat, downfalls, synth.

Each analysis command builds one report, a JSON tree on stdout, byte for
byte json.dumps(report, indent=2); its long lists of rows go through the
C encoder. --format table prints values of the report's "results"
instead, each as a comma-separated block under a "# name" line and a
header row, its cells formatted a column at a time. Exit
codes: 0 success (also when the reader closes stdout early), 2 input
error, 3 computation error, 4 configuration/usage error. Failures print
a machine-readable {"error", "message"} object on stderr.
"""
from __future__ import annotations

import argparse
import datetime as dt
import gc
import hashlib
import itertools
import json
import os
import sys

# hurstlab makes no BLAS call, but OpenBLAS starts a pool of worker
# threads when numpy loads, and they spin for ~0.13 s of CPU in every
# process; a value the user has set is kept. It must be set before the
# first numpy import, which the next lines make (hurstlab/__init__
# imports none).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .downfalls import (  # noqa: E402
    DEFAULT_LOOKBACK_DAYS,
    DEFAULT_MIN_DEPTH,
    classify_episode,
    critical_cutoff,
    extract_downfalls,
    progressive_kurtosis,
    rank_size_points,
)
from .errors import (
    ComputationError,
    ConfigError,
    EmptyTraceError,
    HurstLabError,
    InputError,
    TraceTooShortError,
)
from .rescaled_range import EstimatorKind, PartitionPolicy, StdMode
from .rolling import (
    DEFAULT_CUT_POINTS,
    RollingConfig,
    classify_market,
    estimate_window,
    summarize,
    sweep,
)
from .series import (
    CsvConfig,
    PriceSeries,
    ReturnSeries,
    Transform,
    log_returns,
    parse_price_csv,
    parse_return_csv,
    serialize_dated_csv,
    serialize_price_csv,
    transform_returns,
)
from .synthetic import (
    GeneratorKind,
    GeneratorSpec,
    generate,
    synthetic_calendar,
)
from .vstat import DEFAULT_FLAT_TOLERANCE, v_statistic

_ESTIMATORS = {"rs": EstimatorKind.RESCALED_RANGE, "dfa": EstimatorKind.DFA}


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage failures follow the exit-code contract."""

    def error(self, message):
        print(json.dumps({"error": "UsageError", "message": message}),
              file=sys.stderr)
        raise SystemExit(4)

    def _parse_optional(self, arg_string):
        # Any float (-1e-3, -inf) is a value, never an option: argparse's
        # own negative-number pattern misses some forms, by Python version.
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def build_parser() -> _Parser:
    parser = _Parser(prog="hurstlab",
                     description="Hurst exponent and downfall-regime analysis "
                                 "of daily price series")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_flags(p, *estimators):
        # The input flags, --returns where an estimator reads the series,
        # then the settings of each estimator the command runs and
        # --estimator where it runs more than one. A default is the one of
        # the record that the flag sets, or of the function it calls.
        p.add_argument("input", help="CSV path, or - for stdin")
        if estimators:
            p.add_argument("--returns", action="store_true",
                           help="input holds returns, not prices")
        p.add_argument("--delimiter", default=CsvConfig.delimiter)
        p.add_argument("--date-column", type=int, default=CsvConfig.date_column)
        p.add_argument("--close-column", type=int,
                       default=CsvConfig.close_column)
        p.add_argument("--date-format", default=CsvConfig.date_format)
        p.add_argument("--format", choices=("json", "table"), default="json")
        if not estimators:
            return
        p.add_argument("--transform", default=Transform.RAW.value,
                       choices=sorted(t.value for t in Transform))
        if len(estimators) > 1:
            default, = (name for name in estimators
                        if _ESTIMATORS[name] is RollingConfig.estimator)
            p.add_argument("--estimator", choices=sorted(estimators),
                           default=default)
        if "rs" in estimators:
            p.add_argument("--plan", default=RollingConfig.plan_policy.value,
                           choices=sorted(x.value for x in PartitionPolicy))
            p.add_argument("--min-segment", type=int,
                           default=RollingConfig.min_segment_length)
            p.add_argument("--std", default=RollingConfig.std_mode.value,
                           choices=sorted(m.value for m in StdMode))

    p_hurst = sub.add_parser("hurst", help="full-series R/S Hurst estimate")
    add_flags(p_hurst, "rs")
    p_hurst.set_defaults(func=cmd_hurst, estimator="rs")

    p_dfa = sub.add_parser("dfa", help="full-series DFA Hurst estimate")
    add_flags(p_dfa, "dfa")
    p_dfa.set_defaults(func=cmd_hurst, estimator="dfa")

    p_roll = sub.add_parser("rolling", help="sliding-window Hurst trace")
    add_flags(p_roll, "rs", "dfa")
    p_roll.add_argument("--window", type=int, default=RollingConfig.window)
    p_roll.add_argument("--lag", type=int, default=RollingConfig.lag)
    p_roll.add_argument("--cuts", type=float, nargs="+",
                        default=list(DEFAULT_CUT_POINTS))
    p_roll.set_defaults(func=cmd_rolling)

    p_vstat = sub.add_parser("vstat", help="V statistic cycle test")
    # The V statistic is defined on the R/S curve.
    add_flags(p_vstat, "rs")
    p_vstat.add_argument("--flat-tolerance", type=float,
                         default=DEFAULT_FLAT_TOLERANCE)
    p_vstat.set_defaults(func=cmd_vstat)

    p_down = sub.add_parser("downfalls", help="downfall episodes and "
                                              "kurtosis regimes")
    add_flags(p_down)
    p_down.add_argument("--lookback", type=int, default=DEFAULT_LOOKBACK_DAYS)
    p_down.add_argument("--min-depth", type=float, default=DEFAULT_MIN_DEPTH)
    p_down.add_argument("--include-open", action="store_true")
    p_down.set_defaults(func=cmd_downfalls)

    p_synth = sub.add_parser("synth", help="emit a seeded synthetic series "
                                           "as CSV")
    p_synth.add_argument("--kind", default="prices",
                         choices=sorted(k.value for k in GeneratorKind))
    p_synth.add_argument("--n", type=int, required=True)
    p_synth.add_argument("--h", type=float, default=GeneratorSpec.h)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--drift", type=float, default=GeneratorSpec.drift)
    p_synth.add_argument("--vol", type=float,
                         default=GeneratorSpec.volatility)
    p_synth.set_defaults(func=cmd_synth)

    return parser


# -- input handling ----------------------------------------------------------

def _read_input(args) -> tuple[str, str]:
    """(text, sha256 fingerprint of the raw bytes). A file and stdin are
    both read as bytes and decoded as UTF-8, whatever the locale."""
    try:
        if args.input == "-":
            if sys.stdin is None:  # the process started with fd 0 closed
                raise OSError("stdin is closed")
            raw = sys.stdin.buffer.read()
        else:
            with open(args.input, "rb") as handle:
                raw = handle.read()
        text = raw.decode("utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {args.input}: {exc}") from exc
    except UnicodeError as exc:
        raise InputError(f"{args.input} is not UTF-8 text: {exc}") from exc
    return text, hashlib.sha256(raw).hexdigest()


def _csv_config(args) -> CsvConfig:
    return CsvConfig(delimiter=args.delimiter,
                     date_column=args.date_column,
                     close_column=args.close_column,
                     date_format=args.date_format)


def _load_returns(args) -> tuple[ReturnSeries, PriceSeries | None, str]:
    text, fingerprint = _read_input(args)
    config = _csv_config(args)
    if args.returns:
        return parse_return_csv(text, config), None, fingerprint
    prices = parse_price_csv(text, config)
    return log_returns(prices), prices, fingerprint


#: Each estimator flag's RollingConfig field, and its value there.
_SETTINGS = (("estimator", "estimator", _ESTIMATORS.__getitem__),
             ("plan", "plan_policy", PartitionPolicy),
             ("min_segment", "min_segment_length", int),
             ("std", "std_mode", StdMode))


def _rolling_config(args, **geometry) -> RollingConfig:
    """The estimator flags the command has, and the window and lag that
    sweep reads (estimate_window reads neither); RollingConfig's defaults
    stand for the rest."""
    return RollingConfig(**geometry, **{
        field: value(getattr(args, flag))
        for flag, field, value in _SETTINGS if hasattr(args, flag)})


# -- report rendering --------------------------------------------------------

def _echo(args, keys: tuple[str, ...]) -> dict:
    """The command and the values of those keys that it has."""
    return {"command": args.command, **{key: getattr(args, key)
                                        for key in keys if hasattr(args, key)}}


def _emit(report: dict, fmt: str, tables: list[tuple]) -> None:
    """Print the report as JSON, or the given values of its results.

    Each table is (name, header, value). The value is a list of rows
    (lists, or dicts keyed by the header), a dict shown as key/value rows
    of its scalars, or None to leave the table out.
    """
    if fmt == "json":
        print(_json(report, ""))
        return
    blocks = []
    for name, header, value in tables:
        if value is None:
            continue
        if isinstance(value, dict):
            rows = [(key, item) for key, item in value.items()
                    if not isinstance(item, (list, dict))]
        else:
            rows = [[row[key] for key in header] if isinstance(row, dict)
                    else row for row in value]
        blocks.append("\n".join([f"# {name}", ",".join(header),
                                 *_table_lines(rows)]))
    print("\n\n".join(blocks))


_SCALARS = {str, int, float, bool, type(None)}


def _json(value, indent: str) -> str:
    """json.dumps(value, indent=2), nested at the given indent.

    A list of non-empty rows of scalars, such as a trace, is encoded in one
    call of the C encoder, with the row items' line breaks as its item
    separator; the row boundaries are then broken as indent=2 breaks them.
    An encoded string never holds a raw newline, so the separator only
    occurs between items. Dicts with str keys are written item by item;
    anything else is json.dumps(indent=2) re-indented.
    """
    inner = indent + "  "
    if isinstance(value, dict) and value and all(
            isinstance(key, str) for key in value):
        return "{\n" + inner + (",\n" + inner).join(
            json.dumps(key) + ": " + _json(item, inner)
            for key, item in value.items()) + "\n" + indent + "}"
    if (isinstance(value, list) and value and set(map(type, value)) == {list}
            and all(value)
            and set(map(type, itertools.chain.from_iterable(value))) <= _SCALARS):
        sep = ",\n" + inner + "  "
        open_row, close_row = "[" + sep[1:], "\n" + inner + "]"
        body = json.dumps(value, separators=(sep, ": "))[2:-2].replace(
            "]" + sep + "[", close_row + ",\n" + inner + open_row)
        return "[\n" + inner + open_row + body + close_row + "\n" + indent + "]"
    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


def _table_lines(rows: list) -> list[str]:
    """Each row's _cell values joined by commas. Rows have one length, the
    header's; cells are formatted a column at a time."""
    columns = [map(_cell, column) for column in zip(*rows)]
    return list(map(",".join, zip(*columns)))


def _cell(value) -> str:
    """A value as str prints it, which for a float is its repr; None is
    an empty cell."""
    return "" if value is None else str(value)


# -- subcommands -------------------------------------------------------------

def cmd_hurst(args) -> int:
    returns, _, fingerprint = _load_returns(args)
    transformed = transform_returns(returns, Transform(args.transform))
    est = estimate_window(transformed.values, _rolling_config(args))
    results = {
        "h": est.h,
        "r_squared": est.r_squared,
        "autocorrelation_c": est.autocorrelation_c,
        "fractal_dimension": est.fractal_dimension,
        "persistence": est.persistence.value,
        "estimator": est.estimator.value,
        "curve": [[int(n), float(s)]
                  for n, s in zip(est.curve.scales, est.curve.statistics)],
    }
    report = {
        "command": _echo(args, ("transform", "estimator", "plan",
                                "min_segment", "std", "returns")),
        "input": {"fingerprint": fingerprint, "returns": len(transformed)},
        "results": results,
        "diagnostics": {
            "skipped_segments": [list(pair) for pair in est.skipped_segments],
            "flags": list(est.flags),
        },
    }
    _emit(report, args.format, [
        ("estimate", ("key", "value"), results),
        ("scaling_curve", ("scale", "statistic"), results["curve"]),
    ])
    return 0


def cmd_vstat(args) -> int:
    returns, _, fingerprint = _load_returns(args)
    transformed = transform_returns(returns, Transform(args.transform))
    est = estimate_window(transformed.values, _rolling_config(args))
    curve = v_statistic(est.curve, flat_tolerance=args.flat_tolerance)
    results = {
        "trend": curve.trend.value,
        "slope": curve.slope,
        "peak_scale": curve.peak_scale,
        "points": [[ln, v] for ln, v in zip(curve.log_scales, curve.v_values)],
        "h": est.h,
    }
    report = {
        "command": _echo(args, ("transform", "plan", "min_segment",
                                "flat_tolerance", "returns", "std")),
        "input": {"fingerprint": fingerprint, "returns": len(transformed)},
        "results": results,
        "diagnostics": {"flags": list(est.flags)},
    }
    _emit(report, args.format, [
        ("vstat", ("key", "value"), results),
        ("v_curve", ("log_n", "v"), results["points"]),
    ])
    return 0


def cmd_rolling(args) -> int:
    returns, prices, fingerprint = _load_returns(args)
    # built before the transform
    config = _rolling_config(args, window=args.window, lag=args.lag)
    trace = sweep(transform_returns(returns, Transform(args.transform)),
                  config)
    end_dates = list(map(dt.date.isoformat, trace.end_dates))
    diagnostics = {"gaps": [[day, note] for day, note
                            in zip(end_dates, trace.notes) if note]}
    summary = market = None
    try:
        summary = summarize(trace, tuple(args.cuts))
        market = classify_market(trace)
    except EmptyTraceError:
        diagnostics["notes"] = ["no usable windows; summary omitted"]
    except TraceTooShortError:
        diagnostics["notes"] = ["fewer than 10 measurements; market "
                                "class omitted"]
    results = {
        "count": trace.count,
        "trace": list(map(list, zip(end_dates, trace.h, trace.r_squared))),
        "summary": ({
            "h_min": summary.h_min,
            "h_max": summary.h_max,
            "h_mean": summary.h_mean,
            "first_measurement_date":
                summary.first_measurement_date.isoformat(),
            "count": summary.count,
            "proportions_above": {str(cut): frac
                                  for cut, frac in summary.proportions.items()},
            "fraction_below_half": summary.fraction_below_half,
        } if summary is not None else None),
        "market_class": ({"class": market.kind.value,
                          "rationale": market.rationale}
                         if market else None),
        "prices": (list(map(list, zip(map(dt.date.isoformat, prices.dates),
                                      prices.closes.tolist())))
                   if prices is not None else None),
    }
    report = {
        "command": _echo(args, ("window", "lag", "estimator", "transform",
                                "plan", "cuts", "returns", "min_segment",
                                "std")),
        "input": {"fingerprint": fingerprint, "returns": len(returns)},
        "results": results,
        "diagnostics": diagnostics,
    }
    _emit(report, args.format, [
        ("trace", ("date", "h", "r_squared"), results["trace"]),
        ("prices", ("date", "close"), results["prices"]),
        ("summary", ("key", "value"), _summary_rows(results)),
    ])
    return 0


def _summary_rows(results: dict) -> list | None:
    """Rows of the summary table: count, extrema, mean, first date and the
    share below 0.5, then one row per cut, then the market class."""
    summary, market = results["summary"], results["market_class"]
    if summary is None:
        return None
    keys = ("count", "h_min", "h_max", "h_mean", "first_measurement_date",
            "fraction_below_half")
    return ([(key, summary[key]) for key in keys]
            + [(f"fraction_above_{cut}", frac)
               for cut, frac in summary["proportions_above"].items()]
            + ([("market_class", market["class"])] if market else []))


def cmd_downfalls(args) -> int:
    text, fingerprint = _read_input(args)
    prices = parse_price_csv(text, _csv_config(args))
    episodes = extract_downfalls(prices, lookback_days=args.lookback,
                                 min_depth=args.min_depth)
    diagnostics = {}
    scan = scan_rows = critical = None
    try:
        scan = progressive_kurtosis(episodes, include_open=args.include_open)
        scan_rows = list(map(list, zip(scan.upper_index, scan.upper_value,
                                       scan.excess_kurtosis)))
        critical = critical_cutoff(scan)
    except ComputationError as exc:
        diagnostics["notes"] = [f"kurtosis scan unavailable: {exc}"]
    try:
        rank_size = rank_size_points(episodes, include_open=args.include_open)
    except ComputationError:
        rank_size = []
    results = {
        "episodes": [{
            "peak_date": ep.peak_date.isoformat(),
            "trough_date": ep.trough_date.isoformat(),
            "recovery_date": (ep.recovery_date.isoformat()
                              if ep.recovery_date else None),
            "depth": ep.depth,
            "duration_days": ep.duration_days,
            "open": ep.is_open,
            "regime": (classify_episode(ep, critical).value
                       if critical is not None else None),
        } for ep in episodes],
        "rank_size": [[lr, ld] for lr, ld in rank_size],
        "kurtosis_scan": ({"entries": scan_rows,
                           "skipped_subsets": list(scan.skipped_subsets)}
                          if scan is not None else None),
        "critical": ({
            "cutoff_depth": critical.cutoff_depth,
            "cutoff_index": critical.cutoff_index,
            "kurtosis_at_cutoff": critical.kurtosis_at_cutoff,
        } if critical is not None else None),
    }
    report = {
        "command": _echo(args, ("lookback", "min_depth", "include_open")),
        "input": {"fingerprint": fingerprint, "rows": len(prices)},
        "results": results,
        "diagnostics": diagnostics,
    }
    _emit(report, args.format, [
        ("episodes", ("peak_date", "trough_date", "recovery_date", "depth",
                      "duration_days", "open", "regime"), results["episodes"]),
        ("rank_size", ("log_rank", "log_depth"), results["rank_size"]),
        ("kurtosis_scan", ("upper_index", "upper_value", "excess_kurtosis"),
         scan_rows),
        ("critical", ("key", "value"), results["critical"]),
    ])
    return 0


def cmd_synth(args) -> int:
    spec = GeneratorSpec(kind=GeneratorKind(args.kind), length=args.n,
                         seed=args.seed, h=args.h, drift=args.drift,
                         volatility=args.vol)
    result = generate(spec)
    if isinstance(result, PriceSeries):
        print(serialize_price_csv(result), end="")
    else:
        print(serialize_dated_csv(synthetic_calendar(result.size), result,
                                  "value"), end="")
    return 0


def main(argv=None) -> int:
    if argv is None:
        # A fresh process (the console script, `python -m`): every import
        # is done, so keep the ~22,000 objects they made out of every
        # later full collection, the one at exit included. An in-process
        # caller passes argv and keeps its heap as it is.
        gc.freeze()
    try:
        code = _dispatch(argv)
        print(end="", flush=True)  # flushes stdout; a no-op if it is closed
    except BrokenPipeError:  # the reader closed stdout early, as `| head` does
        _detach_stdout()
        return 0
    return code


def _dispatch(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    except InputError as exc:
        return _fail(exc, 2)
    except ComputationError as exc:
        return _fail(exc, 3)
    except ConfigError as exc:
        return _fail(exc, 4)
    except HurstLabError as exc:  # pragma: no cover - safety net
        return _fail(exc, 3)


def _detach_stdout() -> None:
    """Point stdout's file descriptor at devnull, so that the output still
    buffered is dropped at exit instead of raising BrokenPipeError again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError):  # an in-memory stream has no fd
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _fail(exc: HurstLabError, code: int) -> int:
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
