"""Fingerprint the hurstlab CLI on a fixed matrix of invocations.

    python3 tools/cli_matrix.py [--src DIR]

Seeded inputs are made with `hurstlab synth`, plus a few hand-written or
edited CSV files, in a temporary directory. Each invocation then runs
there as a fresh `python -m hurstlab.cli` process on relative paths, so
neither its arguments nor its output depend on where it runs. One line
is printed per invocation:

    <exit code> <sha256 of stdout> <sha256 of stderr> <argv as JSON>

Diffing the output for two source trees (``--src``, default the ``src/``
next to this script) checks that they behave alike byte for byte. The
exit status is 1 when an invocation exits with another code than the
matrix lists or prints a traceback; each such problem is also described
on stderr.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from typing import NamedTuple


class Run(NamedTuple):
    code: int                # the exit code the invocation must give
    argv: tuple[str, ...]    # arguments after `python -m hurstlab.cli`
    stdin: str | None = None  # file fed to stdin
    save: str | None = None   # file that receives stdout


def _runs(*argvs: str, code: int = 0) -> list[Run]:
    return [Run(code, tuple(argv.split())) for argv in argvs]


SEMI = ("--delimiter", ";", "--date-column", "2", "--close-column", "0",
        "--date-format", "%d/%m/%Y")

MATRIX = [
    # Inputs. P: 1,499 returns and Q: 1,009, both primes, so the auto
    # plan takes the doubling lengths; D: 1,000 returns (divisors);
    # W: 250 returns (preset250).
    Run(0, ("synth", "--kind", "prices", "--n", "1500", "--seed", "11",
            "--vol", "0.02"), save="P.csv"),
    Run(0, ("synth", "--kind", "prices", "--n", "1010", "--seed", "5",
            "--vol", "0.01"), save="Q.csv"),
    Run(0, ("synth", "--n", "1001", "--seed", "3"), save="D.csv"),
    Run(0, ("synth", "--n", "251", "--seed", "2", "--vol", "0.01"),
        save="W.csv"),
    Run(0, ("synth", "--kind", "fgn", "--n", "1024", "--h", "0.7",
            "--seed", "1"), save="F.csv"),
    Run(0, ("synth", "--kind", "white-noise", "--n", "600", "--seed", "4"),
        save="N.csv"),
    *_runs("synth --kind fbm --n 300 --h 0.3 --seed 2",
           "synth --n 50 --seed 0 --drift -1e-3 --vol 0.05",
           "synth --kind fgn --n 4096 --h 0.999999999999 --seed 0"),
    *_runs("synth --kind fgn --n 100",
           "synth --n 1",
           "synth --n 100 --seed -1",
           "synth --kind fgn --n 100 --h 1.5",
           "synth --kind fgn --n 70000 --h 0.7",
           "synth --n 3000000",
           "synth --n 10 --drift inf",
           "synth --kind fgn --n 1 --seed -1 --h 2",
           "synth --kind prices --n 50 --h 0.7",
           "synth",
           "synth --kind nope --n 5", code=4),
    # hurst and its plans
    *_runs("hurst P.csv",
           "hurst Q.csv",
           "hurst D.csv",
           "hurst W.csv",
           "hurst W.csv --plan divisors",
           "hurst W.csv --plan preset250 --format table",
           "hurst D.csv --format table",
           "hurst Q.csv --min-segment 10 --format table",
           "hurst F.csv --returns",
           "hurst F.csv --returns --transform absolute --std sample",
           "hurst F.csv --returns --transform squared --min-segment 16",
           "hurst unsorted.csv",
           # G: 600 returns with a run of 300 zeros, so standalone
           # estimates skip the constant segments of most scales
           "hurst G.csv --returns",
           "hurst G.csv --returns --format table"),
    *_runs("hurst P.csv --plan divisors",
           "hurst P.csv --plan preset250",
           "hurst D.csv --min-segment 1",
           "hurst D.csv --min-segment 600",
           "hurst Q.csv --min-segment 300",
           "hurst W.csv --min-segment 30",
           "hurst P.csv --delimiter ;;",
           "hurst P.csv --date-column -1", code=4),
    Run(0, ("hurst", "-"), stdin="P.csv"),
    Run(2, ("hurst", "-"), stdin="latin1.csv"),
    Run(0, ("hurst", "S.csv", *SEMI)),
    Run(0, ("rolling", "S.csv", *SEMI, "--format", "table")),
    *_runs("hurst nope.csv",
           "hurst latin1.csv",
           "hurst badrow.csv",
           "hurst nonpos.csv",
           "hurst dup.csv",
           "hurst empty.csv",
           "hurst header.csv",
           "hurst P.csv --close-column 5", code=2),
    *_runs("hurst flat.csv", code=3),
    # CSV cells and lines that only the csv module tokenises, or that the
    # parser strips, skips or rejects
    *_runs("hurst quoted.csv",
           "hurst crlf.csv",
           "hurst blank.csv",
           "hurst padded.csv",
           "hurst underscore.csv",
           "hurst extra.csv"),
    *_runs("hurst feb30.csv",
           "hurst year0.csv",
           "hurst compact.csv",
           "hurst nan.csv",
           "hurst inf.csv",
           "hurst cr.csv",
           "hurst blankbad.csv",
           "hurst quotedzero.csv", code=2),
    Run(2, ("hurst", "S31.csv", *SEMI)),
    # dfa
    *_runs("dfa P.csv",
           "dfa P.csv --format table",
           "dfa F.csv --returns",
           "dfa G.csv --returns",
           "dfa F.csv --returns --transform absolute",
           "dfa F.csv --returns --format table"),
    *_runs("dfa flat.csv", code=3),
    # each command takes only the flags of the estimator it runs, and DFA
    # has one reading, so no command takes a fit target
    *_runs("dfa P.csv --plan divisors",
           "dfa P.csv --fit-target squared",
           "hurst P.csv --fit-target squared",
           "rolling P.csv --estimator dfa --std sample", code=4),
    # vstat
    *_runs("vstat P.csv",
           "vstat D.csv --format table",
           "vstat F.csv --returns --flat-tolerance 0.01 --std sample",
           "vstat Q.csv --min-segment 10",
           "vstat G.csv --returns"),
    *_runs("vstat P.csv --flat-tolerance -1",
           "vstat P.csv --plan divisors",
           # vstat is always R/S and takes no estimator flags
           "vstat P.csv --estimator dfa", code=4),
    # two prices, one return: shorter than the smallest segment or box,
    # which is what the error names, as none of these takes --window
    *_runs("hurst two.csv",
           "dfa two.csv",
           "vstat two.csv", code=4),
    # rolling
    *_runs("rolling P.csv",
           "rolling P.csv --lag 1",
           "rolling P.csv --window 251",
           "rolling Q.csv --window 1009 --lag 1",
           "rolling P.csv --window 300 --plan divisors --format table",
           "rolling P.csv --estimator dfa --window 256 --lag 5 --format table",
           "rolling P.csv --estimator dfa --window 128 --lag 20",
           "rolling F.csv --returns --transform absolute --lag 20 "
           "--cuts 0.55 0.65",
           "rolling F.csv --returns --std sample --min-segment 10 "
           "--window 200 --lag 7",
           "rolling G.csv --returns --lag 10",
           "rolling G.csv --returns --lag 10 --format table",
           # every gap window of G at lag 1, each with its note
           "rolling G.csv --returns --lag 1",
           "rolling G.csv --returns --estimator dfa --window 256 --lag 1 "
           "--format table",
           # G shifted by 0.1: the same gaps, as a constant run is told by
           # its values, not by a deviation that rounds to 0
           "rolling G1.csv --returns --lag 10",
           "rolling W.csv --lag 1",
           "rolling flat.csv --window 100 --lag 10",
           "rolling D.csv --window 500 --lag 50 --transform squared",
           "rolling F.csv --returns --estimator dfa --transform squared "
           "--window 256 --lag 16"),
    Run(0, ("rolling", "-", "--lag", "25"), stdin="P.csv"),
    *_runs("rolling P.csv --window 251 --plan divisors",
           "rolling P.csv --window 20",
           "rolling P.csv --window 250 --min-segment 30",
           "rolling P.csv --cuts nan",
           "rolling P.csv --cuts 0.5 0.5",
           "rolling P.csv --cuts -inf",
           "rolling P.csv --window 1",
           "rolling P.csv --lag 0", code=4),
    *_runs("rolling W.csv --window 300", code=3),
    # downfalls
    *_runs("downfalls P.csv",
           "downfalls P.csv --format table",
           "downfalls P.csv --lookback 20 --min-depth 0.05 --include-open",
           "downfalls W.csv",
           "downfalls flat.csv",
           "downfalls flat.csv --format table"),
    *_runs("downfalls F.csv --returns",
           "downfalls P.csv --min-depth -1",
           "downfalls P.csv --lookback 0", code=4),
    # usage
    *_runs("--help", "hurst --help"),
    Run(4, ()),
    *_runs("nope",
           "hurst",
           "hurst P.csv --plan explicit",
           "rolling P.csv --window abc",
           "hurst P.csv --symbol X", code=4),
]


def write_derived_inputs(work: str) -> None:
    """The hand-written and edited CSV files, from P.csv and N.csv."""
    def read(name):
        with open(os.path.join(work, name)) as handle:
            return handle.read().splitlines()

    def write(name, lines, encoding="utf-8", end="\n"):
        with open(os.path.join(work, name), "wb") as handle:
            handle.write((end.join(lines) + end).encode(encoding))

    def edit(name, row, cells):
        """P.csv with the cells of data row `row` replaced."""
        write(name, prices[:row] + [",".join(cells)] + prices[row + 1:])

    def quote(rows):
        return ['"' + row.replace(",", '","') + '"' for row in rows]

    prices = read("P.csv")
    write("unsorted.csv", prices[:1] + prices[:0:-1])
    write("quoted.csv", quote(prices))
    write("quotedzero.csv", quote(prices[:2] + [prices[2].split(",")[0] + ",0"]
                                  + prices[3:]))
    write("cr.csv", prices[:1] + [prices[1].replace(",", "\r,")] + prices[2:])
    write("blankbad.csv", prices[:1] + ["", " , "] + prices[1:2]
          + [" , ", prices[2].split(",")[0] + ",abc"] + prices[3:])
    write("crlf.csv", prices, end="\r\n")
    write("blank.csv", prices[:1] + [""] + prices[1:500] + ["  ", " , "]
          + prices[500:] + [""])
    write("padded.csv", prices[:1] + [" " + row.replace(",", " ,\t")
                                      for row in prices[1:]])
    write("extra.csv", [row + ",1" for row in prices])
    date, close = prices[7].split(",")
    edit("underscore.csv", 7, [date, "1_0"])
    edit("nan.csv", 7, [date, "nan"])
    edit("inf.csv", 7, [date, "inf"])
    edit("compact.csv", 7, [date.replace("-", ""), close])
    edit("feb30.csv", 7, ["2000-02-30", close])
    edit("year0.csv", 7, ["0000-01-01", close])
    semi = ["close;volume;date"]
    for row in prices[1:]:
        date, close = row.split(",")
        year, month, day = date.split("-")
        semi.append(f"{close};1;{day}/{month}/{year}")
    write("S.csv", semi)
    write("S31.csv", semi[:2] + [semi[2].rsplit(";", 1)[0] + ";31/02/2000"]
          + semi[3:])
    noise = read("N.csv")
    write("G.csv", noise[:101] + [row.split(",")[0] + ",0.0"
                                  for row in noise[101:401]] + noise[401:])
    write("G1.csv", read("G.csv")[:1] + [
        f"{date},{float(value) + 0.1!r}"
        for date, value in (row.split(",") for row in read("G.csv")[1:])])
    write("flat.csv", prices[:1] + [row.split(",")[0] + ",100.0"
                                    for row in prices[1:301]])
    write("latin1.csv", ["date,close", "2000-01-03,1é"], "latin-1")
    write("badrow.csv", ["date,close", "2000-01-03,1.0", "2000-01-04,abc"])
    write("nonpos.csv", ["date,close", "2000-01-03,1.0", "2000-01-04,0.0"])
    write("dup.csv", ["date,close", "2000-01-03,1.0", "2000-01-03,1.1",
                      "2000-01-04,1.2"])
    write("header.csv", ["date,close"])
    write("two.csv", prices[:3])
    with open(os.path.join(work, "empty.csv"), "wb"):
        pass


def run_matrix(src: str, work: str) -> list[str]:
    """Run every invocation; print its line and return the problems."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    problems = []
    for run in MATRIX:
        stdin = (open(os.path.join(work, run.stdin), "rb") if run.stdin
                 else subprocess.DEVNULL)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "hurstlab.cli", *run.argv], cwd=work,
                env=env, stdin=stdin, capture_output=True, check=False)
        finally:
            if run.stdin:
                stdin.close()
        if run.save:
            with open(os.path.join(work, run.save), "wb") as handle:
                handle.write(proc.stdout)
            if run.save == "N.csv":
                write_derived_inputs(work)
        argv = json.dumps(list(run.argv))
        print(proc.returncode, hashlib.sha256(proc.stdout).hexdigest(),
              hashlib.sha256(proc.stderr).hexdigest(), argv, flush=True)
        if proc.returncode != run.code:
            problems.append(f"exit {proc.returncode}, expected {run.code}: "
                            f"{argv}")
        if b"Traceback (most recent call last)" in proc.stderr:
            problems.append(f"traceback: {argv}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"),
        help="source tree to import hurstlab from")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="cli_matrix_") as work:
        problems = run_matrix(args.src, work)
    for problem in problems:
        print(f"cli_matrix: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
