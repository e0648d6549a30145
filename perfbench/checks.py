"""Output checks that do not trust the code under test.

Every estimate the CLI prints is recomputed here with plain numpy: one
segment or one box at a time, straight from the CSV text, with no import
from hurstlab. Each checker returns a list of problems; an empty list
means the output passed.
"""
from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

#: Absolute tolerance between a printed estimate and its recomputation.
ORACLE_TOL = 1e-9

#: Ground truth of the one-shot workload's fGn and the half-width around it
#: that the recovered h must fall in. Calibrated with perfbench/calibrate.py
#: over seeds 0..199 of fgn(4096, 0.7): R/S deviates by +0.007 +/- 0.027
#: (largest 0.080), DFA by +0.000 +/- 0.030 (largest 0.086). Each bound is
#: about 1.5x the largest deviation and over 4 standard deviations.
VALIDATE_H = 0.7
VALIDATE_TOL = {"rs": 0.12, "dfa": 0.14}

#: Segment lengths of the fixed fragmentation of a 250-return window.
PRESET_250 = (16, 20, 25, 31, 35, 41, 50, 62, 83, 125)


# -- inputs ------------------------------------------------------------------

class Series:
    """A two-column dated CSV: header, date strings, float values."""

    def __init__(self, text: str):
        rows = [row for row in csv.reader(io.StringIO(text)) if row]
        self.header = rows[0]
        self.dates = [row[0] for row in rows[1:]]
        self.values = np.array([float(row[1]) for row in rows[1:]])

    def problems(self, header, rows, positive):
        out = []
        if self.header != header:
            out.append(f"header {self.header} != {header}")
        if len(self.dates) != rows:
            out.append(f"{len(self.dates)} rows, expected {rows}")
        if not np.all(np.isfinite(self.values)):
            out.append("non-finite value")
        if positive and not np.all(self.values > 0):
            out.append("non-positive price")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            out.append("dates not strictly increasing")
        return out

    def log_returns(self) -> np.ndarray:
        return np.diff(np.log(self.values))


# -- oracles -----------------------------------------------------------------

def _line(x, y):
    """(slope, r_squared) of the OLS line of y on x."""
    slope = np.polyfit(x, y, 1)[0]
    if np.ptp(y) == 0:
        return float(slope), 0.0
    r = np.corrcoef(x, y)[0, 1]
    return float(slope), float(min(1.0, r * r))


def rs_curve(x: np.ndarray, scales) -> list[float]:
    """Mean R/S ratio per scale over leading non-overlapping segments."""
    curve = []
    for n in scales:
        ratios = []
        for i in range(x.size // n):
            seg = x[i * n:(i + 1) * n]
            dev = seg - seg.mean()
            sd = math.sqrt(float(np.mean(dev * dev)))
            walk = np.cumsum(dev)
            if sd > 0:
                ratios.append((walk.max() - walk.min()) / sd)
        curve.append(float(np.mean(ratios)))
    return curve


def rs_fit(x, scales):
    curve = rs_curve(x, scales)
    h, r2 = _line(np.log(scales), np.log(curve))
    return h, r2, curve


def dfa_curve(x: np.ndarray, scales) -> list[float]:
    """Mean squared residual of per-box linear fits of the profile."""
    y = np.cumsum(x - x.mean())
    curve = []
    for tau in scales:
        t = np.arange(tau, dtype=np.float64)
        fsq = []
        for b in range(y.size // tau):
            seg = y[b * tau:(b + 1) * tau]
            resid = seg - np.polyval(np.polyfit(t, seg, 1), t)
            fsq.append(float(np.mean(resid * resid)))
        curve.append(float(np.mean(fsq)))
    return curve


def dfa_fit(x, scales):
    curve = dfa_curve(x, scales)
    h, r2 = _line(np.log(scales), 0.5 * np.log(curve))
    return h, r2, curve


def divisors(length: int, lo: int = 8) -> list[int]:
    return [n for n in range(lo, length // 2 + 1) if length % n == 0]


def powers_of_two(lo: int, hi: int) -> list[int]:
    out = []
    b = lo
    while b <= hi:
        out.append(b)
        b *= 2
    return out


def dfa_schedules(length: int) -> list[list[int]]:
    """Box schedules a correct DFA may use: powers of two from 8, up to
    length//8 (today's default) or up to length//4 (the largest box the
    estimator accepts)."""
    out = []
    for hi in (length // 8, length // 4):
        sizes = powers_of_two(8, hi)
        if len(sizes) >= 3 and sizes not in out:
            out.append(sizes)
    return out


def excess_kurtosis(values) -> float:
    x = np.asarray(values, dtype=np.float64)
    dev = x - x.mean()
    m2 = float(np.mean(dev ** 2))
    return float(np.mean(dev ** 4)) / (m2 * m2) - 3.0


# -- helpers -----------------------------------------------------------------

def _close(a, b, tol=ORACLE_TOL) -> bool:
    return a is not None and b is not None and abs(a - b) <= tol * max(1.0, abs(b))


def _json(stdout: bytes, out: list):
    try:
        return json.loads(stdout)
    except ValueError as exc:
        out.append(f"stdout is not JSON: {exc}")
        return None


def _check_estimate(results, x, scales, fit, out, label):
    """Printed h, r_squared, curve and derived values against the oracle."""
    got_scales = [int(n) for n, _ in results["curve"]]
    if got_scales != list(scales):
        out.append(f"{label}: curve scales {got_scales} != plan {list(scales)}")
        return None
    h, r2, curve = fit(x, scales)
    if not _close(results["h"], h):
        out.append(f"{label}: h {results['h']} != oracle {h}")
    if not _close(results["r_squared"], r2):
        out.append(f"{label}: r_squared {results['r_squared']} != oracle {r2}")
    for (n, got), want in zip(results["curve"], curve):
        if not _close(got, want):
            out.append(f"{label}: curve at {n} {got} != oracle {want}")
            break
    got_h = results["h"]
    if not _close(results["autocorrelation_c"], 2.0 ** (2.0 * got_h - 1.0) - 1.0, 1e-12):
        out.append(f"{label}: autocorrelation_c inconsistent with h")
    if got_h > 0 and not _close(results["fractal_dimension"], 1.0 / got_h, 1e-12):
        out.append(f"{label}: fractal_dimension inconsistent with h")
    want_p = ("persistent" if got_h > 0.5 else
              "anti-persistent" if got_h < 0.5 else "random")
    if results["persistence"] != want_p:
        out.append(f"{label}: persistence {results['persistence']} for h {got_h}")
    return got_h


def sample_windows(count: int, seed: int, k: int = 40) -> list[int]:
    """First, last and a seeded sample of window indices."""
    rng = np.random.default_rng(seed)
    picks = {0, count - 1, *rng.choice(count, size=min(k, count), replace=False).tolist()}
    return sorted(int(i) for i in picks)


# -- per-command checks --------------------------------------------------------

def check_trace(rows, prices: Series, window: int, lag: int, estimator: str,
                seed: int) -> list[str]:
    """rows: [(date, h, r_squared)] of a rolling trace over `prices`."""
    out = []
    x = prices.log_returns()
    expected = (x.size - window) // lag + 1
    if len(rows) != expected:
        return [f"trace has {len(rows)} windows, expected (L-w)//lag+1 = {expected}"]
    for i, (date, h, r2) in enumerate(rows):
        if date != prices.dates[i * lag + window]:
            return [f"window {i} dated {date}, expected {prices.dates[i * lag + window]}"]
        if h is None or not math.isfinite(h):
            return [f"window {i} is a gap"]
    for i in sample_windows(expected, seed):
        w = x[i * lag: i * lag + window]
        if estimator == "rs":
            fits = [rs_fit(w, PRESET_250 if window == 250 else divisors(window))]
        else:
            fits = [dfa_fit(w, s) for s in dfa_schedules(window)]
        _, h, r2 = rows[i]
        if not any(_close(h, fh) and _close(r2, fr2) for fh, fr2, _ in fits):
            out.append(f"window {i}: (h, r2) = ({h}, {r2}) != oracle "
                       f"{[(fh, fr2) for fh, fr2, _ in fits]}")
            break
    return out


def check_summary(summary: dict, hs: list[float], out: list) -> None:
    h = np.array(hs)
    if summary["count"] != h.size:
        out.append(f"summary count {summary['count']} != {h.size}")
    if summary["h_min"] != h.min() or summary["h_max"] != h.max():
        out.append("summary extrema differ from the trace")
    if not _close(summary["h_mean"], float(h.mean()), 1e-12):
        out.append("summary mean differs from the trace")
    if not _close(summary["fraction_below_half"], float((h < 0.5).mean()), 1e-12):
        out.append("summary fraction_below_half differs from the trace")


def check_rolling_json(stdout, prices, window, lag, seed):
    out = []
    report = _json(stdout, out)
    if report is None:
        return out
    res = report["results"]
    rows = [tuple(r) for r in res["trace"]]
    out += check_trace(rows, prices, window, lag, "rs", seed)
    if res["count"] != len(rows):
        out.append("count differs from trace length")
    if [p[0] for p in res["prices"]] != prices.dates or \
            not np.array_equal([p[1] for p in res["prices"]], prices.values):
        out.append("echoed prices differ from the input")
    check_summary(res["summary"], [r[1] for r in rows], out)
    for cut, frac in res["summary"]["proportions_above"].items():
        want = float((np.array([r[1] for r in rows]) > float(cut)).mean())
        if not _close(frac, want, 1e-12):
            out.append(f"proportion above {cut} {frac} != {want}")
    if (res["market_class"] or {}).get("class") not in ("mature", "emergent", "hybrid"):
        out.append(f"market class {res['market_class']}")
    return out


def parse_tables(text: str) -> dict[str, list[list[str]]]:
    """'# name' blocks of comma-separated rows (header first)."""
    tables = {}
    for block in text.strip().split("\n\n"):
        lines = block.splitlines()
        if not lines or not lines[0].startswith("# "):
            raise ValueError(f"block without a '# name' line: {lines[:1]}")
        tables[lines[0][2:]] = [line.split(",") for line in lines[1:]]
    return tables


def check_rolling_table(stdout, prices, window, lag, seed):
    try:
        tables = parse_tables(stdout.decode())
    except ValueError as exc:
        return [f"bad table output: {exc}"]
    out = []
    trace = tables.get("trace", [])
    if trace[:1] != [["date", "h", "r_squared"]]:
        return ["missing trace table"]
    rows = [(d, float(h) if h else None, float(r) if r else None) for d, h, r in trace[1:]]
    out += check_trace(rows, prices, window, lag, "dfa", seed)
    echoed = tables.get("prices", [])[1:]
    if [r[0] for r in echoed] != prices.dates or \
            not np.array_equal([float(r[1]) for r in echoed], prices.values):
        out.append("echoed prices differ from the input")
    summary = dict(tables.get("summary", [])[1:])
    try:
        check_summary({"count": int(summary["count"]),
                       "h_min": float(summary["h_min"]),
                       "h_max": float(summary["h_max"]),
                       "h_mean": float(summary["h_mean"]),
                       "fraction_below_half": float(summary["fraction_below_half"])},
                      [r[1] for r in rows], out)
    except (KeyError, ValueError) as exc:
        out.append(f"bad summary table: {exc}")
    return out


def check_hurst(stdout, x, estimator, target=None):
    """Full-series `hurst`/`dfa` report; target=(h, tol) bounds the estimate."""
    out = []
    report = _json(stdout, out)
    if report is None:
        return out
    res = report["results"]
    if report["input"]["returns"] != x.size:
        out.append(f"input.returns {report['input']['returns']} != {x.size}")
    if res["estimator"] != ("rescaled_range" if estimator == "rs" else "dfa"):
        out.append(f"estimator {res['estimator']}")
    if estimator == "rs":
        h = _check_estimate(res, x, divisors(x.size), rs_fit, out, "hurst")
    else:
        scales = [int(n) for n, _ in res["curve"]]
        if len(scales) < 3 or scales != powers_of_two(8, scales[-1]) \
                or scales[-1] > x.size // 4:
            out.append(f"dfa: box sizes {scales} are not powers of two from 8 "
                       f"up to at most length/4")
            return out
        h = _check_estimate(res, x, scales, dfa_fit, out, "dfa")
    if report["diagnostics"]["skipped_segments"]:
        out.append("skipped segments on a series without constant segments")
    if target is not None and h is not None and abs(h - target[0]) > target[1]:
        out.append(f"recovered h {h} outside {target[0]} +/- {target[1]}")
    return out


def check_vstat(stdout, x):
    out = []
    report = _json(stdout, out)
    if report is None:
        return out
    res = report["results"]
    scales = divisors(x.size)
    h, _, curve = rs_fit(x, scales)
    got_n = [round(math.exp(ln)) for ln, _ in res["points"]]
    if got_n != scales:
        return [f"vstat scales {got_n} != plan {scales}"]
    for (_, v), rs, n in zip(res["points"], curve, scales):
        if not _close(v, rs / math.sqrt(n)):
            out.append(f"V at n={n}: {v} != oracle {rs / math.sqrt(n)}")
            break
    log_n = np.array([p[0] for p in res["points"]])
    v = np.array([p[1] for p in res["points"]])
    slope = float(np.polyfit(log_n, v, 1)[0])
    if not _close(res["slope"], slope):
        out.append(f"slope {res['slope']} != oracle {slope}")
    tol = report["command"]["flat_tolerance"]
    trend = ("flat" if abs(res["slope"]) <= tol else
             "increasing" if res["slope"] > 0 else "decreasing")
    if res["trend"] != trend:
        out.append(f"trend {res['trend']} for slope {res['slope']}")
    if res["peak_scale"] != scales[int(np.argmax(v))]:
        out.append("peak_scale is not the argmax of V")
    if not _close(res["h"], h):
        out.append("vstat h differs from the R/S oracle")
    return out


def check_downfalls(stdout, prices: Series):
    out = []
    report = _json(stdout, out)
    if report is None:
        return out
    res = report["results"]
    index = {d: i for i, d in enumerate(prices.dates)}
    closes = prices.values
    episodes = res["episodes"]
    if not episodes:
        return ["no downfall episodes in a 10,000-day random walk"]
    last_end = 0
    for k, ep in enumerate(episodes):
        peak, trough = index[ep["peak_date"]], index[ep["trough_date"]]
        rec = index.get(ep["recovery_date"]) if ep["recovery_date"] else None
        if peak < last_end:
            out.append(f"episode {k} starts before the previous one recovered")
        if not peak < trough or (rec is not None and not trough < rec):
            out.append(f"episode {k}: peak/trough/recovery out of order")
        if ep["open"] != (rec is None) or (rec is None and k != len(episodes) - 1):
            out.append(f"episode {k}: only the last episode may be open")
        stop = rec if rec is not None else closes.size
        if closes[trough] != closes[peak + 1:stop].min():
            out.append(f"episode {k}: trough is not the lowest close")
        if not _close(ep["depth"], math.log(closes[peak] / closes[trough]), 1e-12):
            out.append(f"episode {k}: depth {ep['depth']} != ln(peak/trough)")
        if ep["duration_days"] != trough - peak:
            out.append(f"episode {k}: duration {ep['duration_days']} != {trough - peak}")
        last_end = rec if rec is not None else closes.size
        if out:
            return out
    depths = sorted(ep["depth"] for ep in episodes if not ep["open"])
    critical = res["critical"]
    if critical is None:
        return ["no critical cutoff"]
    cut, k = critical["cutoff_depth"], critical["cutoff_index"]
    if cut not in depths:
        out.append(f"cutoff {cut} is not one of the depths")
    elif depths[k - 1] != cut:
        out.append(f"cutoff index {k} does not select depth {cut}")
    entries = res["kurtosis_scan"]["entries"]
    if [e[0] for e in entries] != list(range(4, len(depths) + 1)):
        out.append("kurtosis scan does not cover subsets 4..N")
    else:
        for upper, value, kurt in entries:
            if value != depths[upper - 1] or \
                    not _close(kurt, excess_kurtosis(depths[:upper])):
                out.append(f"kurtosis scan entry {upper} differs from the oracle")
                break
        best = min(abs(e[2]) for e in entries)
        if abs(critical["kurtosis_at_cutoff"]) != best:
            out.append("cutoff is not the scan entry nearest zero kurtosis")
    for ep in episodes:
        want = "leptokurtic" if ep["depth"] > cut else "mesokurtic"
        if ep["regime"] != want:
            out.append(f"episode at {ep['peak_date']} regime {ep['regime']} != {want}")
            break
    rank = res["rank_size"]
    if len(rank) != len(depths) or not _close(rank[0][1], math.log(depths[-1]), 1e-12):
        out.append("rank-size points do not match the closed depths")
    return out
