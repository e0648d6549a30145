"""Property tests of the CLI exit-code contract over `synth` argv and over
the analysis subcommands' argv and input bytes.

Every invocation must exit 0, 2, 3 or 4; stderr must be empty or exactly
one JSON {"error", "message"} line; no exception may escape and no
warning may be emitted (either would print non-JSON text on stderr).
"""
import contextlib
import datetime as dt
import io
import json
import math
import os
import tempfile
import warnings

from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from hurstlab import cli

_H_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1.0, -0.5, 0.5,
                     1e-300, 0.999999999999, 1.0 + 1e-15]),
    st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
)
_BIG_FLOATS = st.one_of(
    st.sampled_from([0.0, 1.0, 1e308, -1e308, 1e300, -1e300, math.inf,
                     -math.inf, math.nan, 5e-324]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_SEEDS = st.one_of(st.integers(0, 10),
                   st.integers(2 ** 64 - 2, 2 ** 80),
                   st.integers(-2 ** 80, -1))


def _rarely(draw) -> bool:
    """True one draw in ten."""
    return draw(st.sampled_from([False] * 9 + [True]))


@st.composite
def synth_argv(draw):
    kind = draw(st.sampled_from(["prices", "white-noise", "fgn", "fbm",
                                 "bogus"]))
    n = draw(st.integers(-3, 70000))
    argv = ["synth", f"--kind={kind}", f"--n={n}",
            f"--seed={draw(_SEEDS)}"]
    # A kind's own flags half the time each, and rarely one it does not read
    takes_h, takes_walk = kind in ("fgn", "fbm"), kind == "prices"
    if draw(st.booleans()) and (takes_h or _rarely(draw)):
        argv.append(f"--h={draw(_H_VALUES)!r}")
    if draw(st.booleans()) and (takes_walk or _rarely(draw)):
        argv.append(f"--vol={draw(_BIG_FLOATS)!r}")
    if draw(st.booleans()) and (takes_walk or _rarely(draw)):
        argv.append(f"--drift={draw(_BIG_FLOATS)!r}")
    return argv


def run_main(argv):
    """(exit code, stdout) of cli.main, after the contract checks."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    event(f"exit {code}")
    assert [str(w.message) for w in caught] == []
    assert code in (0, 2, 3, 4)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"error", "message"}
        assert out.getvalue() == ""
    return code, out.getvalue()


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=synth_argv())
def test_synth_argv_keeps_exit_code_contract(argv):
    code, out = run_main(argv)
    if code == 0:
        assert out.startswith("date,")


def _seeded_prices() -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["synth", "--kind", "prices", "--n", "300",
                         "--seed", "21", "--vol", "0.02"]) == 0
    return out.getvalue().encode()


PRICES = _seeded_prices()


def _log_returns(prices: bytes) -> tuple[list[str], list[float]]:
    """Dates and log-returns of a date,close CSV."""
    rows = [line.split(",") for line in prices.decode().splitlines()[1:]]
    closes = [float(close) for _, close in rows]
    return [date for date, _ in rows[1:]], [
        math.log(b / a) for a, b in zip(closes, closes[1:])]


RETURNS = _log_returns(PRICES)

#: Closes alternating 1e300 and the next lower double: every decline is
#: 0.0 in log space.
VANISHING = ("date,close\n" + "".join(
    f"{dt.date(2000, 1, 3) + dt.timedelta(days=i)},"
    f"{math.nextafter(1e300, 0.0) if i % 2 else 1e300!r}\n"
    for i in range(40))).encode()

_FLOAT_TEXT = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-1", "0", "0.05", "0.5", "0.7",
                     "1e308"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)


def _often(draw, value, strategy):
    """A valid value three times in four, else a draw of the strategy."""
    return value if draw(st.sampled_from([True, True, True, False])) \
        else draw(strategy)


@st.composite
def analysis_input(draw):
    """The seeded price CSV, a copy with a few bytes changed, noise, the
    seeded log-returns scaled by 10^k, finite but huge, as a returns CSV,
    or prices whose declines vanish in log space; and whether the input
    must be read with --returns."""
    kind = draw(st.sampled_from(["prices", "prices", "edited", "noise",
                                 "huge", "vanishing"]))
    if kind == "vanishing":
        return VANISHING, False
    if kind == "huge":
        scale = 10.0 ** draw(st.integers(150, 308))
        dates, values = RETURNS
        text = "".join(f"{d},{v * scale!r}\n" for d, v in zip(dates, values))
        return f"date,return\n{text}".encode(), True
    if kind == "noise":
        return draw(st.binary(max_size=300)), False
    data = bytearray(PRICES)
    if kind == "edited":
        for _ in range(draw(st.integers(1, 3))):
            data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data), False


@st.composite
def analysis_argv(draw):
    command = draw(st.sampled_from(["hurst", "dfa", "vstat", "rolling",
                                    "downfalls"]))
    data, returns = draw(analysis_input())
    delimiters = st.sampled_from([";", "", "ab", "\t", '"'])
    columns = st.integers(-3, 3)
    flags = [f"--format={draw(st.sampled_from(['json', 'table']))}",
             f"--delimiter={_often(draw, ',', delimiters)}",
             f"--date-column={_often(draw, 0, columns)}",
             f"--close-column={_often(draw, 1, columns)}"]
    # downfalls reads prices only: --returns is rarely drawn for it, as a
    # flag it lacks
    if (_rarely(draw) if command == "downfalls"
            else returns or draw(st.sampled_from([False, False, False, True]))):
        flags.append("--returns")
    if command != "downfalls":
        estimator = ({"hurst": "rs", "dfa": "dfa", "vstat": "rs"}.get(command)
                     or draw(st.sampled_from(["rs", "dfa"])))
        flags.append(
            f"--transform={draw(st.sampled_from(['raw', 'absolute', 'squared']))}")
        # The R/S flags, and rarely for DFA, which rejects them: dfa as
        # unknown flags, rolling as settings DFA does not read unless each
        # is its default.
        if estimator == "rs" or _rarely(draw):
            flags += [
                f"--min-segment={_often(draw, 8, st.integers(-2, 200))}",
                f"--plan={draw(st.sampled_from(['auto', 'divisors', 'preset250']))}",
                f"--std={draw(st.sampled_from(['population', 'sample']))}",
            ]
    if command == "rolling":
        flags += [
            f"--window={_often(draw, 250, st.integers(-2, 320))}",
            f"--lag={_often(draw, 5, st.integers(-1, 60))}",
            f"--estimator={estimator}",
            "--cuts",
            *(_often(draw, "0.5", _FLOAT_TEXT)
              for _ in range(draw(st.integers(1, 3)))),
        ]
    elif command == "vstat":
        flags.append(f"--flat-tolerance={_often(draw, '0.09', _FLOAT_TEXT)}")
    elif command == "downfalls":
        flags += [f"--min-depth={_often(draw, '0', _FLOAT_TEXT)}",
                  f"--lookback={_often(draw, 250, st.integers(-1, 400))}"]
    return command, flags, data


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=analysis_argv())
@example(case=("downfalls", [], VANISHING))
def test_analysis_argv_keeps_exit_code_contract(case):
    command, flags, data = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.csv")
        with open(path, "wb") as handle:
            handle.write(data)
        code, out = run_main([command, path, *flags])
    if code == 0 and "--format=table" in flags:
        blocks = out.rstrip("\n").split("\n\n")
        assert all(block.startswith("# ") for block in blocks)
    elif code == 0:
        json.loads(out)
