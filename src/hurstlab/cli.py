"""Command-line front end: hurst, dfa, rolling, vstat, downfalls, synth.

Each analysis command builds one report, a JSON tree on stdout.
--format table prints values of the report's "results" instead, each as
a comma-separated block under a "# name" line and a header row. Exit
codes: 0 success (also when the reader closes stdout early), 2 input
error, 3 computation error, 4 configuration/usage error. Failures print
a machine-readable {"error", "message"} object on stderr.
"""
from __future__ import annotations

import argparse
import datetime as dt
import hashlib
import json
import os
import sys

from .dfa import FitTarget
from .downfalls import (
    DEFAULT_LOOKBACK_DAYS,
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
from .rescaled_range import (
    DEFAULT_MIN_SEGMENT,
    EstimatorKind,
    PartitionPolicy,
    StdMode,
)
from .rolling import (
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
    serialize_price_csv,
    transform_returns,
)
from .synthetic import (
    SYNTHETIC_EPOCH,
    GeneratorKind,
    GeneratorSpec,
    generate,
)
from .vstat import DEFAULT_FLAT_TOLERANCE, v_statistic

_TRANSFORMS = {t.value: t for t in Transform}
_ESTIMATORS = {"rs": EstimatorKind.RESCALED_RANGE, "dfa": EstimatorKind.DFA}
_PLANS = {"divisors": PartitionPolicy.DIVISORS_ONLY,
          "preset250": PartitionPolicy.PRESET_250}
_STD_MODES = {m.value: m for m in StdMode}
_FIT_TARGETS = {t.value: t for t in FitTarget}
_KINDS = {k.value: k for k in GeneratorKind}


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

    def add_input_flags(p):
        p.add_argument("input", help="CSV path, or - for stdin")
        p.add_argument("--returns", action="store_true",
                       help="input holds returns, not prices")
        p.add_argument("--symbol", default="SERIES")
        p.add_argument("--delimiter", default=",")
        p.add_argument("--date-column", type=int, default=0)
        p.add_argument("--close-column", type=int, default=1)
        p.add_argument("--date-format", default="%Y-%m-%d")
        p.add_argument("--format", choices=("json", "table"), default="json")

    def add_estimator_flags(p, default_estimator="rs"):
        p.add_argument("--transform", choices=sorted(_TRANSFORMS), default="raw")
        p.add_argument("--estimator", choices=sorted(_ESTIMATORS),
                       default=default_estimator)
        p.add_argument("--plan", choices=("auto", "divisors", "preset250"),
                       default="auto")
        p.add_argument("--min-segment", type=int, default=DEFAULT_MIN_SEGMENT)
        p.add_argument("--std", choices=sorted(_STD_MODES), default="population")
        p.add_argument("--fit-target", choices=sorted(_FIT_TARGETS),
                       default="rms", help="DFA fit target")

    p_hurst = sub.add_parser("hurst", help="full-series Hurst estimate")
    add_input_flags(p_hurst)
    add_estimator_flags(p_hurst)
    p_hurst.set_defaults(func=cmd_hurst)

    p_dfa = sub.add_parser("dfa", help="alias of hurst --estimator dfa")
    add_input_flags(p_dfa)
    add_estimator_flags(p_dfa, default_estimator="dfa")
    p_dfa.set_defaults(func=cmd_hurst)

    p_roll = sub.add_parser("rolling", help="sliding-window Hurst trace")
    add_input_flags(p_roll)
    add_estimator_flags(p_roll)
    p_roll.add_argument("--window", type=int, default=250)
    p_roll.add_argument("--lag", type=int, default=5)
    p_roll.add_argument("--cuts", type=float, nargs="+",
                        default=[0.5, 0.6, 0.7])
    p_roll.set_defaults(func=cmd_rolling)

    p_vstat = sub.add_parser("vstat", help="V statistic cycle test")
    add_input_flags(p_vstat)
    add_estimator_flags(p_vstat)
    p_vstat.add_argument("--flat-tolerance", type=float,
                         default=DEFAULT_FLAT_TOLERANCE)
    p_vstat.set_defaults(func=cmd_vstat)

    p_down = sub.add_parser("downfalls", help="downfall episodes and "
                                              "kurtosis regimes")
    add_input_flags(p_down)
    p_down.add_argument("--lookback", type=int, default=DEFAULT_LOOKBACK_DAYS)
    p_down.add_argument("--min-depth", type=float, default=0.0)
    p_down.add_argument("--include-open", action="store_true")
    p_down.set_defaults(func=cmd_downfalls)

    p_synth = sub.add_parser("synth", help="emit a seeded synthetic series "
                                           "as CSV")
    p_synth.add_argument("--kind", choices=sorted(_KINDS), default="prices")
    p_synth.add_argument("--n", type=int, required=True)
    p_synth.add_argument("--h", type=float, default=None)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--drift", type=float, default=0.0)
    p_synth.add_argument("--vol", type=float, default=1.0)
    p_synth.set_defaults(func=cmd_synth)

    return parser


# -- input handling ----------------------------------------------------------

def _read_input(args) -> tuple[str, str]:
    """(text, sha256 fingerprint of the raw bytes)."""
    try:
        if args.input == "-":
            text = sys.stdin.read()
            raw = text.encode("utf-8")
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
        returns = parse_return_csv(text, config, symbol=args.symbol)
        return returns, None, fingerprint
    prices = parse_price_csv(text, config, symbol=args.symbol)
    return log_returns(prices), prices, fingerprint


def _rolling_config(args, window: int, lag: int = 1) -> RollingConfig:
    """The estimator flags, for estimate_window (one window) or sweep."""
    return RollingConfig(
        window=window,
        lag=lag,
        estimator=_ESTIMATORS[args.estimator],
        transform=_TRANSFORMS[args.transform],
        plan_policy=None if args.plan == "auto" else _PLANS[args.plan],
        min_segment_length=args.min_segment,
        std_mode=_STD_MODES[args.std],
        dfa_fit_target=_FIT_TARGETS[args.fit_target],
    )


# -- report rendering --------------------------------------------------------

def _echo(args, keys: tuple[str, ...]) -> dict:
    echo = {"command": args.command}
    for key in keys:
        echo[key] = getattr(args, key.replace("-", "_"))
    return echo


def _emit(report: dict, fmt: str, tables: list[tuple]) -> None:
    """Print the report as JSON, or the given values of its results.

    Each table is (name, header, value). The value is a list of rows
    (lists, or dicts keyed by the header), a dict shown as key/value rows
    of its scalars, or None to leave the table out.
    """
    if fmt == "json":
        print(json.dumps(report, indent=2))
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
        lines = [f"# {name}", ",".join(header)]
        lines.extend(",".join(_cell(item) for item in row) for row in rows)
        blocks.append("\n".join(lines))
    print("\n\n".join(blocks))


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


# -- subcommands -------------------------------------------------------------

def cmd_hurst(args) -> int:
    returns, _, fingerprint = _load_returns(args)
    transformed = transform_returns(returns, _TRANSFORMS[args.transform])
    est = estimate_window(transformed.values,
                          _rolling_config(args, len(transformed)))
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
    transformed = transform_returns(returns, _TRANSFORMS[args.transform])
    args.estimator = "rs"  # V statistic is defined on the R/S curve
    est = estimate_window(transformed.values,
                          _rolling_config(args, len(transformed)))
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
                                "flat_tolerance", "returns")),
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
    trace = sweep(returns, _rolling_config(args, args.window, args.lag))
    diagnostics = {"gaps": [[m.end_date.isoformat(), m.note]
                            for m in trace.measurements if m.is_gap]}
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
        "trace": [[m.end_date.isoformat(), m.h, m.r_squared]
                  for m in trace.measurements],
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
        "prices": ([[d.isoformat(), float(c)] for d, c in prices.observations]
                   if prices is not None else None),
    }
    report = {
        "command": _echo(args, ("window", "lag", "estimator", "transform",
                                "plan", "cuts", "returns")),
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
    summary = results["summary"]
    if summary is None:
        return None
    rows = [(key, summary[key]) for key in (
        "count", "h_min", "h_max", "h_mean", "first_measurement_date",
        "fraction_below_half")]
    rows.extend((f"fraction_above_{cut}", frac)
                for cut, frac in summary["proportions_above"].items())
    if results["market_class"] is not None:
        rows.append(("market_class", results["market_class"]["class"]))
    return rows


def cmd_downfalls(args) -> int:
    if args.returns:
        raise ConfigError("downfalls requires a price series input")
    text, fingerprint = _read_input(args)
    prices = parse_price_csv(text, _csv_config(args), symbol=args.symbol)
    episodes = extract_downfalls(prices, lookback_days=args.lookback,
                                 min_depth=args.min_depth)
    diagnostics = {}
    scan = critical = None
    try:
        scan = progressive_kurtosis(episodes, include_open=args.include_open)
        critical = critical_cutoff(scan)
    except ComputationError as exc:
        diagnostics["notes"] = [f"kurtosis scan unavailable: {exc}"]
    try:
        rank_size = rank_size_points(episodes, include_open=args.include_open)
    except ComputationError:
        rank_size = []
    episode_rows = []
    for ep in episodes:
        regime = (classify_episode(ep, critical).value
                  if critical is not None else None)
        episode_rows.append({
            "peak_date": ep.peak_date.isoformat(),
            "trough_date": ep.trough_date.isoformat(),
            "recovery_date": (ep.recovery_date.isoformat()
                              if ep.recovery_date else None),
            "depth": ep.depth,
            "duration_days": ep.duration_days,
            "open": ep.is_open,
            "regime": regime,
        })
    results = {
        "episodes": episode_rows,
        "rank_size": [[lr, ld] for lr, ld in rank_size],
        "kurtosis_scan": ({
            "entries": [[e.upper_index, e.upper_value, e.excess_kurtosis]
                        for e in scan.entries],
            "skipped_subsets": list(scan.skipped_subsets),
        } if scan is not None else None),
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
    scan_payload = results["kurtosis_scan"]
    _emit(report, args.format, [
        ("episodes", ("peak_date", "trough_date", "recovery_date", "depth",
                      "duration_days", "open", "regime"), results["episodes"]),
        ("rank_size", ("log_rank", "log_depth"), results["rank_size"]),
        ("kurtosis_scan", ("upper_index", "upper_value", "excess_kurtosis"),
         scan_payload["entries"] if scan_payload is not None else None),
        ("critical", ("key", "value"), results["critical"]),
    ])
    return 0


def cmd_synth(args) -> int:
    kind = _KINDS[args.kind]
    if kind in (GeneratorKind.FGN, GeneratorKind.FBM) and args.h is None:
        raise ConfigError(f"--kind {args.kind} requires --h")
    spec = GeneratorSpec(kind=kind, length=args.n, seed=args.seed,
                         h=args.h, drift=args.drift, volatility=args.vol)
    result = generate(spec)
    if isinstance(result, PriceSeries):
        print(serialize_price_csv(result), end="")
        return 0
    lines = ["date,value"]
    for i, value in enumerate(result.tolist()):
        date = SYNTHETIC_EPOCH + dt.timedelta(days=i)
        lines.append(f"{date.isoformat()},{value!r}")
    print("\n".join(lines))
    return 0


def main(argv=None) -> int:
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
