import datetime as dt
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurstlab import cli
from hurstlab.regression import EstimatorKind
from hurstlab.rescaled_range import PartitionPolicy
from hurstlab.rolling import RollingConfig
from hurstlab.series import CsvConfig
from hurstlab.synthetic import GeneratorKind, GeneratorSpec


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

def test_synth_fgn_at_max_length_near_h_one(capsys):
    # Its circulant eigenvalue was -1.141e-08 with the factored
    # autocovariance alone, past the -1e-8 bound, so it exited 3.
    code, out, err = run_cli(capsys, "synth", "--kind", "fgn", "--n", "65536",
                             "--h", "0.9999999999933364")
    assert (code, err) == (0, "")
    assert out.count("\n") == 65537


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
    assert json.loads(err.strip()) == {
        "error": "HOutOfRangeError", "message": "fgn requires an h parameter"}


@pytest.mark.parametrize("argv", [
    ("--n", "1"), ("--n", "64", "--vol", "nan"), ("--n", "64", "--vol", "inf"),
    # a flag that the kind does not read
    ("--kind", "prices", "--n", "50", "--h", "0.7"),
    ("--kind", "white-noise", "--n", "50", "--h", "0.2"),
    ("--kind", "white-noise", "--n", "50", "--vol", "50"),
    ("--kind", "white-noise", "--n", "50", "--drift", "3"),
    ("--kind", "fgn", "--n", "50", "--h", "0.7", "--drift", "0.1"),
    ("--kind", "fbm", "--n", "50", "--h", "0.7", "--vol", "2"),
])
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


def test_synth_fgn_near_one_gives_finite_draw(capsys):
    # 1 - h = 1e-12: the smallest circulant eigenvalue is -1.0e-10, within
    # the rounding bound of the embedding.
    code, out, err = run_cli(capsys, "synth", "--kind", "fgn", "--n", "4096",
                             "--h", "0.999999999999")
    assert code == 0, err
    rows = out.splitlines()
    assert rows[0] == "date,value"
    values = [float(row.split(",")[1]) for row in rows[1:]]
    assert len(values) == 4096
    assert all(math.isfinite(v) for v in values)


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
    monkeypatch.setattr("sys.stdin",
                        io.TextIOWrapper(io.BytesIO(csv_text.encode())))
    code, out, _ = run_cli(capsys, "hurst", "-", "--returns")
    assert code == 0
    assert "results" in json.loads(out)


def test_closed_stdin_exit_2(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", None)
    code, out, err = run_cli(capsys, "hurst", "-")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "InputError",
                               "message": "cannot read -: stdin is closed"}


def test_stdin_is_read_as_the_file_bytes(tmp_path, capsys, monkeypatch):
    # Under a latin-1 text layer, stdin was decoded as latin-1 and encoded
    # again as UTF-8: a UTF-8 header got another fingerprint, and latin-1
    # bytes were parsed instead of refused.
    csv_text = synth_csv(capsys, "--n", "300", "--seed", "9")
    good = csv_text.replace("date,close", "dat\u00e9,close", 1).encode()
    bad = b"date,close\n2000-01-03,1\xe9\n2000-01-04,2\n"
    reports = []
    for raw in (good, bad):
        path = tmp_path / "input.csv"
        path.write_bytes(raw)
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BytesIO(raw), encoding="latin-1"))
        piped = run_cli(capsys, "hurst", "-")
        by_path = run_cli(capsys, "hurst", str(path))
        assert piped[0] == by_path[0]
        reports.append((piped, by_path))
    (code, out, _), (_, file_out, _) = reports[0]
    assert code == 0
    fingerprint = json.loads(out)["input"]["fingerprint"]
    assert fingerprint == hashlib.sha256(good).hexdigest()
    assert out == file_out
    (code, _, err), (_, _, file_err) = reports[1]
    assert code == 2
    assert json.loads(err) == json.loads(file_err.replace(str(path), "-"))


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


def test_rolling_shift_keeps_constant_run_gaps(tmp_path, capsys):
    # 300 zero returns inside white noise make gap windows; shifted by
    # 0.1, whose mean over n copies often does not round to 0.1, the same
    # windows are gaps and the others keep their h.
    lines = synth_csv(capsys, "--kind", "white-noise", "--n", "600",
                      "--seed", "4").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    reports = []
    for shift in (0.0, 0.1):
        text = "date,value\n" + "".join(
            f"{date},{(0.0 if 100 <= i < 400 else float(value)) + shift!r}\n"
            for i, (date, value) in enumerate(rows))
        path = write_fixture(tmp_path, f"run{shift}.csv", text)
        code, out, err = run_cli(capsys, "rolling", path, "--returns",
                                 "--lag", "10")
        assert code == 0, err
        reports.append(json.loads(out))
    base, shifted = reports
    assert shifted["diagnostics"] == base["diagnostics"]
    assert base["diagnostics"]["gaps"]
    for (date, h, r2), (date2, h2, r22) in zip(base["results"]["trace"],
                                             shifted["results"]["trace"]):
        assert date2 == date
        if h is None:
            assert (h2, r22) == (None, None)
        else:
            assert h2 == pytest.approx(h, abs=1e-9)


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


@pytest.mark.parametrize("window, expected", [
    ("1", (4, "ConfigError")), ("250", (2, "InvalidSeriesError"))])
def test_rolling_checks_its_config_before_the_transform(tmp_path, capsys,
                                                        window, expected):
    # 1e200 squared overflows, which only a valid config gets to see
    path = write_fixture(tmp_path, "big.csv",
                         "date,value\n2000-01-03,1e200\n2000-01-04,0.5\n")
    code, out, err = run_cli(capsys, "rolling", path, "--returns",
                             "--transform", "squared", "--window", window)
    assert out == ""
    assert (code, json.loads(err)["error"]) == expected


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


@pytest.mark.parametrize("argv, flag, values", [
    (("vstat",), "--std", ("population", "sample")),
    (("rolling", "--window", "300", "--lag", "100"), "--min-segment",
     ("8", "20")),
    (("rolling", "--lag", "100"), "--std", ("population", "sample")),
])
def test_command_echo_tells_apart_flags_that_change_results(
        tmp_path, capsys, argv, flag, values):
    csv_text = synth_csv(capsys, "--kind", "prices", "--n", "1025",
                         "--seed", "2", "--vol", "0.02")
    path = write_fixture(tmp_path, "px.csv", csv_text)
    reports = []
    for value in values:
        code, out, err = run_cli(capsys, argv[0], path, *argv[1:], flag, value)
        assert code == 0, err
        reports.append(json.loads(out))
    assert reports[0]["results"] != reports[1]["results"]
    assert reports[0]["command"] != reports[1]["command"]


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


@pytest.mark.parametrize("command, flag, value", [
    # The V statistic is defined on the R/S curve only
    ("vstat", "--estimator", "dfa"), ("hurst", "--estimator", "dfa"),
    ("dfa", "--estimator", "rs"), ("dfa", "--plan", "preset250"),
    ("dfa", "--min-segment", "99"), ("dfa", "--std", "sample"),
    # DFA has one reading, h from log sqrt(<F^2>), so no command takes a
    # fit target: the slope of log <F^2> is exactly 2h
    ("dfa", "--fit-target", "rms"), ("rolling", "--fit-target", "rms"),
    ("hurst", "--fit-target", "squared"), ("vstat", "--fit-target", "squared"),
])
def test_commands_take_no_flags_of_another_estimator(tmp_path, capsys,
                                                     command, flag, value):
    csv_text = synth_csv(capsys, "--kind", "prices", "--n", "513",
                         "--seed", "17", "--vol", "0.02")
    path = write_fixture(tmp_path, "px.csv", csv_text)
    code, out, err = run_cli(capsys, command, path, flag, value)
    assert code == 4
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "UsageError"
    assert f"unrecognized arguments: {flag} {value}" in error["message"]


@pytest.mark.parametrize("argv, field", [
    (("--estimator", "dfa", "--plan", "divisors"), "plan_policy"),
    (("--estimator", "dfa", "--min-segment", "16"), "min_segment_length"),
    (("--estimator", "dfa", "--std", "sample"), "std_mode"),
])
def test_rolling_rejects_settings_its_estimator_does_not_read(
        tmp_path, capsys, argv, field):
    csv_text = synth_csv(capsys, "--kind", "prices", "--n", "513",
                         "--seed", "17", "--vol", "0.02")
    path = write_fixture(tmp_path, "px.csv", csv_text)
    code, out, err = run_cli(capsys, "rolling", path, *argv)
    assert (code, out) == (4, "")
    error = json.loads(err)
    assert error["error"] == "ConfigError"
    assert f"does not read {field};" in error["message"]


@pytest.mark.parametrize("command, keys", [
    ("hurst", {"transform", "estimator", "plan", "min_segment", "std",
               "returns"}),
    ("dfa", {"transform", "estimator", "returns"}),
    ("vstat", {"transform", "plan", "min_segment", "std", "flat_tolerance",
               "returns"}),
    ("rolling", {"transform", "estimator", "plan", "min_segment", "std",
                 "window", "lag", "cuts", "returns"}),
])
def test_command_echo_holds_exactly_the_commands_settings(tmp_path, capsys,
                                                          command, keys):
    # Every parsed setting but those that only say how to read the input;
    # hurst and dfa each fix their estimator, and echo it.
    csv_text = synth_csv(capsys, "--kind", "prices", "--n", "513",
                         "--seed", "17", "--vol", "0.02")
    path = write_fixture(tmp_path, "px.csv", csv_text)
    args = cli.build_parser().parse_args([command, path])
    reading = {"command", "func", "input", "delimiter", "date_column",
               "close_column", "date_format", "format"}
    assert set(vars(args)) - reading == keys
    code, out, err = run_cli(capsys, command, path)
    assert code == 0, err
    echo = json.loads(out)["command"]
    assert echo.pop("command") == command
    assert set(echo) == keys


@pytest.mark.parametrize("command", ["hurst", "vstat", "rolling"])
def test_plan_choices_are_the_partition_policies(command):
    commands = cli.build_parser()._subparsers._group_actions[0].choices
    plan = commands[command]._option_string_actions["--plan"]
    assert plan.choices == sorted(p.value for p in PartitionPolicy) == [
        "auto", "divisors", "preset250"]


@pytest.mark.parametrize("command", ["hurst", "dfa", "vstat", "rolling",
                                     "downfalls"])
def test_flag_defaults_are_the_defaults_of_the_records_they_set(command):
    args = cli.build_parser().parse_args([command, "px.csv"])
    assert cli._csv_config(args) == CsvConfig()
    if command == "downfalls":
        return
    geometry = (dict(window=args.window, lag=args.lag)
                if command == "rolling" else {})
    assert cli._rolling_config(args, **geometry) == (
        RollingConfig(estimator=EstimatorKind.DFA) if command == "dfa"
        else RollingConfig())


def test_synth_flag_defaults_are_the_generator_spec_defaults():
    args = cli.build_parser().parse_args(["synth", "--n", "5"])
    kind = GeneratorKind(args.kind)
    assert GeneratorSpec(kind, args.n, args.seed, args.h, args.drift,
                         args.vol) == GeneratorSpec(kind, args.n, args.seed)


@pytest.mark.parametrize("command, message", [
    ("hurst", "length 1 too short for segments of 8"),
    ("vstat", "length 1 too short for segments of 8"),
    ("dfa", "length 1 too short for a box schedule from 8"),
])
def test_short_input_error_names_no_flag_the_command_lacks(
        tmp_path, capsys, command, message):
    # One return: the estimator's own minimum is what fails, not a
    # window, which these commands do not take.
    path = write_fixture(tmp_path, "two.csv",
                         "date,close\n2020-01-02,100.0\n2020-01-03,101.0\n")
    code, out, err = run_cli(capsys, command, path)
    assert (code, out) == (4, "")
    assert json.loads(err) == {"error": "InvalidPlanError", "message": message}


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
    code, out, err = run_cli(capsys, "downfalls", path, "--returns")
    assert (code, out) == (4, "")
    error = json.loads(err)
    assert error["error"] == "UsageError"
    assert "unrecognized arguments: --returns" in error["message"]


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
    ("dfa", "px.csv"),
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


# -- report writer -----------------------------------------------------------

# Strings that could break a writer that re-breaks encoded JSON text.
_TRICKY = st.sampled_from(['"', "\\", "\n", "],\n", "],\n      [", "]", "[",
                           "\u00e9", "\u2603", "\U0001f600", ""])
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2 ** 70, 2 ** 70),
    st.floats(), st.sampled_from([-0.0, math.inf, -math.inf, math.nan]),
    st.text(max_size=6), _TRICKY)
_ROW = st.lists(_SCALARS, min_size=1, max_size=4)
_ROWS = st.lists(_ROW, max_size=5)
_KEYS = st.one_of(st.text(max_size=4), _TRICKY, st.integers(), st.floats(),
                  st.booleans(), st.none())
_TREES = st.recursive(
    st.one_of(_SCALARS, _ROWS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(st.one_of(children, _ROW), max_size=4),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        st.dictionaries(_KEYS, children, max_size=3)),
    max_leaves=30)


@given(_TREES)
@settings(max_examples=400, deadline=None)
def test_json_writer_equals_indent_2(tree):
    assert cli._json(tree, "") == json.dumps(tree, indent=2)


@given(st.integers(1, 4).flatmap(lambda width: st.lists(st.lists(
    st.one_of(_SCALARS, st.floats().map(np.float64)),
    min_size=width, max_size=width), max_size=6)))
@settings(max_examples=300, deadline=None)
def test_table_lines_equal_cell_by_cell(rows):
    assert cli._table_lines(rows) == [",".join(cli._cell(item) for item in row)
                                      for row in rows]
