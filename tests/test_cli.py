import datetime as dt
import io
import json
import math
import os
import random
import subprocess
import sys
import warnings

import pytest

from hurstlab import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def synth_csv(capsys, *argv):
    code, out, err = run_cli(capsys, "synth", *argv)
    assert code == 0, err
    return out


def write_fixture(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# -- synth -------------------------------------------------------------------

def test_synth_prices_csv_shape(capsys):
    out = synth_csv(capsys, "--kind", "prices", "--n", "10", "--seed", "3")
    lines = out.strip().splitlines()
    assert lines[0] == "date,close"
    assert len(lines) == 11
    assert float(lines[1].split(",")[1]) > 0


def test_synth_deterministic(capsys):
    first = synth_csv(capsys, "--kind", "fgn", "--n", "64", "--h", "0.7",
                      "--seed", "5")
    second = synth_csv(capsys, "--kind", "fgn", "--n", "64", "--h", "0.7",
                       "--seed", "5")
    assert first == second


def test_synth_fgn_requires_h(capsys):
    code, _, err = run_cli(capsys, "synth", "--kind", "fgn", "--n", "64")
    assert code == 4
    assert json.loads(err.strip())["error"] == "ConfigError"


@pytest.mark.parametrize("argv", [("--n", "1"), ("--n", "64", "--vol", "nan"),
                                  ("--n", "64", "--vol", "inf")])
def test_synth_invalid_config_exit_4(capsys, argv):
    code, out, err = run_cli(capsys, "synth", *argv)
    assert code == 4
    assert out == ""
    assert json.loads(err.strip())["error"] == "ConfigError"


@pytest.mark.parametrize("argv", [
    ("--n", "64", "--seed", "-1"),
    ("--kind", "prices", "--n", "64", "--vol", "1e308"),
    ("--kind", "prices", "--n", "64", "--drift=-1e308"),
    ("--kind", "white-noise", "--n", "3000000"),
])
def test_synth_out_of_range_config_exit_4(capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "synth", *argv)
    assert [str(w.message) for w in caught] == []
    assert code == 4
    assert out == ""
    assert len(err.splitlines()) == 1
    assert set(json.loads(err)) == {"error", "message"}


def test_synth_fgn_near_one_fails_factorization_exit_3(capsys):
    code, out, err = run_cli(capsys, "synth", "--kind", "fgn", "--n", "4096",
                             "--h", "0.999999999999")
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "FactorizationFailureError"


def test_synth_unknown_flag_exit_4(capsys):
    code, _, err = run_cli(capsys, "synth", "--n", "64", "--bogus", "1")
    assert code == 4
    assert json.loads(err.strip())["error"] == "UsageError"


# -- hurst -------------------------------------------------------------------

def test_hurst_on_white_noise_returns(tmp_path, capsys):
    csv_text = synth_csv(capsys, "--kind", "white-noise", "--n", "4096",
                         "--seed", "1")
    path = write_fixture(tmp_path, "wn.csv", csv_text)
    code, out, err = run_cli(capsys, "hurst", path, "--returns")
    assert code == 0, err
    report = json.loads(out)
    assert 0.45 <= report["results"]["h"] <= 0.62
    assert report["results"]["estimator"] == "rescaled_range"
    assert len(report["results"]["curve"]) == 9
    assert report["input"]["fingerprint"]


def test_hurst_on_prices(tmp_path, capsys):
    csv_text = synth_csv(capsys, "--kind", "prices", "--n", "1025",
                         "--seed", "2", "--vol", "0.02")
    path = write_fixture(tmp_path, "px.csv", csv_text)
    code, out, _ = run_cli(capsys, "hurst", path)
    assert code == 0
    report = json.loads(out)
    assert 0.3 <= report["results"]["h"] <= 0.75
    c = report["results"]["autocorrelation_c"]
    h = report["results"]["h"]
    assert c == pytest.approx(2.0 ** (2 * h - 1) - 1, abs=1e-12)


def test_hurst_fgn_persistent_class(tmp_path, capsys):
    csv_text = synth_csv(capsys, "--kind", "fgn", "--n", "4096", "--h", "0.8",
                         "--seed", "7")
    path = write_fixture(tmp_path, "fgn.csv", csv_text)
    code, out, _ = run_cli(capsys, "hurst", path, "--returns")
    assert code == 0
    report = json.loads(out)
    assert abs(report["results"]["h"] - 0.8) < 0.1
    assert report["results"]["persistence"] == "persistent"


def test_hurst_dfa_alias(tmp_path, capsys):
    csv_text = synth_csv(capsys, "--kind", "white-noise", "--n", "4096",
                         "--seed", "8")
    path = write_fixture(tmp_path, "wn.csv", csv_text)
    code, out, _ = run_cli(capsys, "dfa", path, "--returns")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["estimator"] == "dfa"
    assert abs(report["results"]["h"] - 0.5) < 0.1


def test_hurst_constant_prices_exit_3(tmp_path, capsys):
    rows = "\n".join(
        f"{dt.date(2020, 1, 1) + dt.timedelta(days=i)},50.0" for i in range(65))
    path = write_fixture(tmp_path, "const.csv", "date,close\n" + rows + "\n")
    code, _, err = run_cli(capsys, "hurst", path, "--plan", "divisors")
    assert code == 3
    assert json.loads(err.strip())["error"] == "AllSegmentsDegenerateError"


def test_hurst_malformed_input_exit_2(tmp_path, capsys):
    path = write_fixture(tmp_path, "bad.csv", "date,close\nnot-a-date,1.0\n2020-01-02,2.0\n")
    code, _, err = run_cli(capsys, "hurst", path)
    assert code == 2
    assert json.loads(err.strip())["error"] == "MalformedRowError"


def test_hurst_non_utf8_input_exit_2(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"date,close\n2020-01-01,1.0\n2020-01-02,\xff\xfe\n")
    code, _, err = run_cli(capsys, "hurst", str(path))
    assert code == 2
    assert json.loads(err.strip())["error"] == "InputError"


def test_hurst_stdin(tmp_path, capsys, monkeypatch):
    csv_text = synth_csv(capsys, "--kind", "white-noise", "--n", "512",
                         "--seed", "9")
    monkeypatch.setattr("sys.stdin", io.StringIO(csv_text))
    code, out, _ = run_cli(capsys, "hurst", "-", "--returns")
    assert code == 0
    assert "results" in json.loads(out)


def test_hurst_table_format(tmp_path, capsys):
    csv_text = synth_csv(capsys, "--kind", "white-noise", "--n", "512",
                         "--seed", "10")
    path = write_fixture(tmp_path, "wn.csv", csv_text)
    code, out, _ = run_cli(capsys, "hurst", path, "--returns",
                           "--format", "table")
    assert code == 0
    assert "# estimate" in out
    assert "# scaling_curve" in out
    assert "scale,statistic" in out


# -- rolling -----------------------------------------------------------------

def test_rolling_count_on_260_returns(tmp_path, capsys):
    csv_text = synth_csv(capsys, "--kind", "white-noise", "--n", "260",
                         "--seed", "11")
    path = write_fixture(tmp_path, "wn.csv", csv_text)
    code, out, _ = run_cli(capsys, "rolling", path, "--returns",
                           "--window", "250", "--lag", "5")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["count"] == 3
    assert report["results"]["market_class"] is None
    assert len(report["results"]["trace"]) == 3


def test_rolling_emits_price_table(tmp_path, capsys):
    csv_text = synth_csv(capsys, "--kind", "prices", "--n", "400",
                         "--seed", "12", "--vol", "0.02")
    path = write_fixture(tmp_path, "px.csv", csv_text)
    code, out, _ = run_cli(capsys, "rolling", path, "--window", "250",
                           "--lag", "20")
    assert code == 0
    report = json.loads(out)
    assert len(report["results"]["prices"]) == 400
    dates = [row[0] for row in report["results"]["trace"]]
    assert dates == sorted(dates)
    code, table_out, _ = run_cli(capsys, "rolling", path, "--window", "250",
                                 "--lag", "20", "--format", "table")
    assert "# trace" in table_out
    assert "# prices" in table_out
    assert "date,close" in table_out


def test_rolling_dfa_default_window(tmp_path, capsys):
    csv_text = synth_csv(capsys, "--kind", "prices", "--n", "600",
                         "--seed", "14", "--vol", "0.02")
    path = write_fixture(tmp_path, "px.csv", csv_text)
    code, out, err = run_cli(capsys, "rolling", path, "--estimator", "dfa")
    assert code == 0, err
    report = json.loads(out)
    assert report["results"]["count"] == (599 - 250) // 5 + 1
    assert all(row[1] is not None for row in report["results"]["trace"])


def test_rolling_too_short_exit_3(tmp_path, capsys):
    csv_text = synth_csv(capsys, "--kind", "white-noise", "--n", "100",
                         "--seed", "13")
    path = write_fixture(tmp_path, "wn.csv", csv_text)
    code, _, err = run_cli(capsys, "rolling", path, "--returns")
    assert code == 3
    assert json.loads(err.strip())["error"] == "SeriesTooShortError"


def _prime_length_prices(tmp_path, capsys):
    """3,000 prices: 2,999 returns, a prime, so no divisor plan exists."""
    csv_text = synth_csv(capsys, "--kind", "prices", "--n", "3000",
                         "--seed", "1", "--vol", "0.02")
    return write_fixture(tmp_path, "px3000.csv", csv_text)


@pytest.mark.parametrize("argv", [("hurst",), ("vstat",),
                                  ("rolling", "--window", "251")])
def test_auto_plan_uses_doubling_scales_without_divisors(tmp_path, capsys,
                                                         argv):
    path = _prime_length_prices(tmp_path, capsys)
    code, out, err = run_cli(capsys, argv[0], path, *argv[1:])
    assert code == 0, err
    results = json.loads(out)["results"]
    if argv[0] == "hurst":
        assert [n for n, _ in results["curve"]] == [8 * 2 ** k
                                                    for k in range(8)]
    elif argv[0] == "vstat":
        assert len(results["points"]) == 8
    else:
        assert results["count"] == (2999 - 251) // 5 + 1
        assert all(row[1] is not None for row in results["trace"])


@pytest.mark.parametrize("argv", [("hurst",),
                                  ("rolling", "--window", "251")])
def test_divisors_plan_without_divisors_exit_4(tmp_path, capsys, argv):
    path = _prime_length_prices(tmp_path, capsys)
    code, out, err = run_cli(capsys, argv[0], path, *argv[1:],
                             "--plan", "divisors")
    assert code == 4
    assert out == ""
    assert json.loads(err)["error"] == "InvalidPlanError"


# -- vstat -------------------------------------------------------------------

def test_vstat_white_noise_flat(tmp_path, capsys):
    csv_text = synth_csv(capsys, "--kind", "white-noise", "--n", "4096",
                         "--seed", "1")
    path = write_fixture(tmp_path, "wn.csv", csv_text)
    code, out, _ = run_cli(capsys, "vstat", path, "--returns")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["trend"] == "flat"
    assert len(report["results"]["points"]) == 9


def test_vstat_persistent_increasing(tmp_path, capsys):
    csv_text = synth_csv(capsys, "--kind", "fgn", "--n", "4096", "--h", "0.8",
                         "--seed", "14")
    path = write_fixture(tmp_path, "fgn.csv", csv_text)
    code, out, _ = run_cli(capsys, "vstat", path, "--returns")
    assert code == 0
    assert json.loads(out)["results"]["trend"] == "increasing"


# -- downfalls ---------------------------------------------------------------

def test_downfalls_monotone_up_empty(tmp_path, capsys):
    rows = "\n".join(f"2020-01-{d:02d},{100.0 + d}" for d in range(1, 20))
    path = write_fixture(tmp_path, "up.csv", "date,close\n" + rows + "\n")
    code, out, _ = run_cli(capsys, "downfalls", path)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["episodes"] == []
    assert report["results"]["kurtosis_scan"] is None
    assert "kurtosis scan unavailable" in report["diagnostics"]["notes"][0]


def test_downfalls_random_walk_full_report(tmp_path, capsys):
    csv_text = synth_csv(capsys, "--kind", "prices", "--n", "500",
                         "--seed", "15", "--vol", "0.02")
    path = write_fixture(tmp_path, "px.csv", csv_text)
    code, out, _ = run_cli(capsys, "downfalls", path)
    assert code == 0
    report = json.loads(out)
    episodes = report["results"]["episodes"]
    assert episodes
    assert report["results"]["critical"] is not None
    assert all(row["regime"] in ("mesokurtic", "leptokurtic", None)
               for row in episodes)
    closed = [row for row in episodes if not row["open"]]
    assert len(report["results"]["rank_size"]) == len(closed)
    scan = report["results"]["kurtosis_scan"]
    assert scan["entries"][0][0] == 4


def test_downfalls_rejects_returns_mode(tmp_path, capsys):
    csv_text = synth_csv(capsys, "--kind", "white-noise", "--n", "64",
                         "--seed", "16")
    path = write_fixture(tmp_path, "wn.csv", csv_text)
    code, _, err = run_cli(capsys, "downfalls", path, "--returns")
    assert code == 4
    assert json.loads(err.strip())["error"] == "ConfigError"


def test_downfalls_table_format(tmp_path, capsys):
    csv_text = synth_csv(capsys, "--kind", "prices", "--n", "500",
                         "--seed", "15", "--vol", "0.02")
    path = write_fixture(tmp_path, "px.csv", csv_text)
    code, out, _ = run_cli(capsys, "downfalls", path, "--format", "table")
    assert code == 0
    assert "# episodes" in out
    assert "# critical" in out


# -- input and flag checks ---------------------------------------------------

@pytest.mark.parametrize("argv", [("--delimiter=",), ("--delimiter=ab",),
                                  ("--date-column=-5",)])
def test_bad_csv_layout_exit_4(tmp_path, capsys, argv):
    path = write_fixture(tmp_path, "px.csv", "date,close\n2020-01-01,1.0\n"
                                             "2020-01-02,2.0\n")
    code, out, err = run_cli(capsys, "hurst", path, *argv)
    assert code == 4
    assert out == ""
    assert json.loads(err)["error"] == "ConfigError"


def test_oversized_csv_field_exit_2(tmp_path, capsys):
    path = write_fixture(tmp_path, "big.csv", "date,close\n2020-01-01,"
                                              + "9" * 200_000 + "\n")
    code, out, err = run_cli(capsys, "hurst", path)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "MalformedRowError"


@pytest.mark.parametrize("argv", [
    ("vstat", "--flat-tolerance=nan"),
    ("vstat", "--flat-tolerance=-1"),
    ("downfalls", "--min-depth=nan"),
    ("downfalls", "--min-depth=-0.1"),
    ("rolling", "--cuts=nan"),
    ("rolling", "--cuts", "0.5", "inf"),
    ("rolling", "--cuts", "0.5", "0.50"),
])
def test_bad_float_flag_exit_4(tmp_path, capsys, argv):
    csv_text = synth_csv(capsys, "--kind", "prices", "--n", "513",
                         "--seed", "17", "--vol", "0.02")
    path = write_fixture(tmp_path, "px.csv", csv_text)
    code, out, err = run_cli(capsys, argv[0], path, *argv[1:])
    assert code == 4
    assert out == ""
    assert json.loads(err)["error"] == "ConfigError"


@pytest.mark.parametrize("argv,message", [
    (("rolling", "--cuts", "-inf"), "cut points must be finite"),
    (("rolling", "--cuts", "0.5", "-1e308", "-Infinity"),
     "cut points must be finite"),
    (("downfalls", "--min-depth", "-1e-3"), "min_depth must be finite and >= 0"),
    (("vstat", "--flat-tolerance", "-2.5E-1"),
     "flat_tolerance must be finite and >= 0"),
])
def test_negative_float_flag_value_reaches_its_check(tmp_path, capsys, argv,
                                                     message):
    # Exponent and non-finite forms are values, as -0.5 is: the flag's own
    # check rejects them, not a usage error from the parser.
    csv_text = synth_csv(capsys, "--kind", "prices", "--n", "513",
                         "--seed", "17", "--vol", "0.02")
    path = write_fixture(tmp_path, "px.csv", csv_text)
    code, out, err = run_cli(capsys, argv[0], path, *argv[1:])
    assert code == 4
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "ConfigError"
    assert error["message"].startswith(message)


def test_negative_exponent_flag_values(tmp_path, capsys):
    joined = synth_csv(capsys, "--n", "64", "--drift=-1e-3")
    assert synth_csv(capsys, "--n", "64", "--drift", "-1e-3") == joined
    assert synth_csv(capsys, "--n", "64", "--drift", "-0.001") == joined
    path = write_fixture(tmp_path, "px.csv", synth_csv(
        capsys, "--n", "600", "--seed", "3", "--vol", "0.02"))
    code, out, _ = run_cli(capsys, "rolling", path, "--cuts", "0.5", "-1e-3")
    assert code == 0
    assert list(json.loads(out)["results"]["summary"]["proportions_above"]) \
        == ["0.5", "-0.001"]


@pytest.mark.parametrize("argv,nbytes", [
    (("rolling", "--lag", "1"), 10),  # the report is far larger than 10 bytes
    (("hurst",), 0),  # closed before the report, still buffered, is flushed
])
def test_closed_stdout_exits_0_silently(tmp_path, capsys, argv, nbytes):
    csv_text = synth_csv(capsys, "--kind", "prices", "--n", "2049",
                         "--seed", "18", "--vol", "0.02")
    path = write_fixture(tmp_path, "px.csv", csv_text)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    # Block-buffered stdout, the default: what is still buffered when the
    # pipe closes is what the interpreter's exit flush would fail on.
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "hurstlab.cli", argv[0], path, *argv[1:]],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.read(nbytes)) == nbytes
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


# -- tables against the JSON report -------------------------------------------

def _cell(value):
    """The table's rendering of one JSON value."""
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def _scalars(mapping):
    return [[key, value] for key, value in mapping.items()
            if not isinstance(value, (list, dict))]


def expected_tables(command, results):
    """(name, header, rows) of each table, read off the JSON results."""
    if command in ("hurst", "dfa"):
        return [("estimate", ["key", "value"], _scalars(results)),
                ("scaling_curve", ["scale", "statistic"], results["curve"])]
    if command == "vstat":
        return [("vstat", ["key", "value"], _scalars(results)),
                ("v_curve", ["log_n", "v"], results["points"])]
    if command == "rolling":
        tables = [("trace", ["date", "h", "r_squared"], results["trace"])]
        if results["prices"] is not None:
            tables.append(("prices", ["date", "close"], results["prices"]))
        summary = results["summary"]
        if summary is not None:
            rows = [[key, summary[key]] for key in (
                "count", "h_min", "h_max", "h_mean", "first_measurement_date",
                "fraction_below_half")]
            rows += [[f"fraction_above_{cut}", frac]
                     for cut, frac in summary["proportions_above"].items()]
            if results["market_class"] is not None:
                rows.append(["market_class", results["market_class"]["class"]])
            tables.append(("summary", ["key", "value"], rows))
        return tables
    columns = ["peak_date", "trough_date", "recovery_date", "depth",
               "duration_days", "open", "regime"]
    tables = [("episodes", columns,
               [[row[c] for c in columns] for row in results["episodes"]]),
              ("rank_size", ["log_rank", "log_depth"], results["rank_size"])]
    if results["kurtosis_scan"] is not None:
        tables.append(("kurtosis_scan",
                       ["upper_index", "upper_value", "excess_kurtosis"],
                       results["kurtosis_scan"]["entries"]))
    if results["critical"] is not None:
        tables.append(("critical", ["key", "value"],
                       _scalars(results["critical"])))
    return tables


def parse_tables(text):
    tables = []
    for block in text.rstrip("\n").split("\n\n"):
        lines = block.split("\n")
        assert lines[0].startswith("# ")
        tables.append((lines[0][2:], lines[1].split(","),
                       [line.split(",") for line in lines[2:]]))
    return tables


def _flat_prices():
    """Random-walk closes with a 400-day flat stretch (gap windows)."""
    rng, close, rows = random.Random(19), 100.0, []
    for i in range(900):
        if not 300 <= i < 700:
            close *= math.exp(rng.gauss(0.0, 0.02))
        rows.append(f"{dt.date(2001, 1, 1) + dt.timedelta(days=i)},{close!r}")
    return "date,close\n" + "\n".join(rows) + "\n"


@pytest.mark.parametrize("argv", [
    ("hurst", "px.csv"),
    ("hurst", "px.csv", "--plan", "divisors", "--std", "sample"),
    ("dfa", "px.csv", "--fit-target", "squared"),
    ("vstat", "px.csv"),
    ("rolling", "px.csv", "--lag", "25"),
    ("rolling", "flat.csv", "--lag", "10"),
    ("rolling", "px.csv", "--returns", "--window", "300", "--lag", "40"),
    ("downfalls", "px.csv", "--include-open"),
    ("downfalls", "few.csv"),
])
def test_table_matches_json_results(tmp_path, capsys, argv):
    write_fixture(tmp_path, "px.csv", synth_csv(
        capsys, "--kind", "prices", "--n", "1025", "--seed", "20",
        "--vol", "0.02"))
    write_fixture(tmp_path, "flat.csv", _flat_prices())
    write_fixture(tmp_path, "few.csv", "date,close\n" + "\n".join(
        f"2020-01-{d:02d},{c}" for d, c in
        enumerate([10, 9, 11, 12, 11, 13, 14, 13.5, 15], start=1)) + "\n")
    argv = (argv[0], str(tmp_path / argv[1]), *argv[2:])
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    report = json.loads(out)
    code, table_out, err = run_cli(capsys, *argv, "--format", "table")
    assert code == 0, err
    expected = [(name, header, [[_cell(v) for v in row] for row in rows])
                for name, header, rows in expected_tables(argv[0],
                                                          report["results"])]
    assert parse_tables(table_out) == expected
