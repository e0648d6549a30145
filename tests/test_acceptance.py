"""Acceptance suite: one test per criterion, one pass/fail line each.

Every expected value is either exact algebra, an independently computed
oracle, or a seeded synthetic-ground-truth band at the stated tolerance.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import datetime as dt
import functools
import time

import numpy as np

from hurstlab import cli
from hurstlab.dfa import DfaConfig, default_box_sizes, dfa_fluctuation, estimate_hurst_dfa
from hurstlab.downfalls import (
    classify_episode,
    critical_cutoff,
    excess_kurtosis,
    extract_downfalls,
    progressive_kurtosis,
)
from hurstlab.rescaled_range import (
    PartitionPolicy,
    autocorrelation_from_h,
    build_partition_plan,
    estimate_hurst_rs,
    fractal_dimension,
    rs_at_scale,
)
from hurstlab.rolling import RollingConfig, estimate_window, sweep
from hurstlab.series import ReturnSeries, Transform
from hurstlab.synthetic import SYNTHETIC_EPOCH, fgn, random_walk_prices, white_noise
from hurstlab.vstat import Trend, v_statistic

from test_dfa import dfa_oracle
from test_downfalls import downfall_oracle, mk_downfall
from test_rescaled_range import rs_oracle

N = 4096
SEEDS = 50
PLAN = build_partition_plan(N, PartitionPolicy.DIVISORS_ONLY)
DFA_CONFIG = DfaConfig(box_sizes=default_box_sizes(N))


def report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def make_returns(values):
    values = np.asarray(values, dtype=float)
    dates = tuple(SYNTHETIC_EPOCH + dt.timedelta(days=i + 1)
                  for i in range(values.size))
    return ReturnSeries(transform=Transform.RAW,
                        dates=dates, values=values)


def series_for(h, seed):
    if h == 0.5:
        return white_noise(N, seed=seed)
    return fgn(N, h, seed=1000 * int(round(10 * h)) + seed)


@functools.lru_cache(maxsize=None)
def estimator_means(h):
    rs = [estimate_hurst_rs(series_for(h, s), PLAN).h for s in range(SEEDS)]
    dfa = [estimate_hurst_dfa(series_for(h, s), DFA_CONFIG).h
           for s in range(SEEDS)]
    return float(np.mean(rs)), float(np.mean(dfa))


def test_criterion_01_white_noise_calibration():
    start = time.perf_counter()
    rs_mean, dfa_mean = estimator_means(0.5)
    elapsed = time.perf_counter() - start
    ok = (abs(dfa_mean - 0.5) <= 0.05 and 0.50 <= rs_mean <= 0.60
          and elapsed < 60.0)
    report(1, ok, f"{SEEDS} seeds at N={N}: DFA mean {dfa_mean:.4f} "
                  f"(need 0.5+/-0.05), R/S mean {rs_mean:.4f} "
                  f"(need [0.50, 0.60]), runtime {elapsed:.1f}s (< 60s)")


def test_criterion_02_known_h_recovery():
    rs3, dfa3 = estimator_means(0.3)
    rs5, dfa5 = estimator_means(0.5)
    rs7, dfa7 = estimator_means(0.7)
    ok = (abs(dfa3 - 0.3) <= 0.07 and abs(dfa7 - 0.7) <= 0.07
          and abs(rs3 - 0.3) <= 0.10 and abs(rs7 - 0.7) <= 0.10
          and rs3 < rs5 < rs7 and dfa3 < dfa5 < dfa7)
    report(2, ok, f"DFA means {dfa3:.4f}/{dfa5:.4f}/{dfa7:.4f} "
                  f"(+/-0.07 of 0.3/0.7), R/S means "
                  f"{rs3:.4f}/{rs5:.4f}/{rs7:.4f} (+/-0.10), "
                  f"both strictly increasing in true H")


def test_criterion_03_exact_formula_identities():
    import mpmath

    mpmath.mp.dps = 40
    exact = (autocorrelation_from_h(0.5) == 0.0
             and fractal_dimension(0.5) == 2.0)
    worst_c = worst_fd = 0.0
    for h in np.linspace(0.01, 0.99, 100):
        c_ref = float(mpmath.power(2, 2 * mpmath.mpf(float(h)) - 1) - 1)
        fd_ref = float(1 / mpmath.mpf(float(h)))
        worst_c = max(worst_c, abs(autocorrelation_from_h(float(h)) - c_ref))
        worst_fd = max(worst_fd, abs(fractal_dimension(float(h)) - fd_ref))
    ok = exact and worst_c <= 1e-12 and worst_fd <= 1e-12
    report(3, ok, f"C(0.5)=0 and F_D(0.5)=2 exact; grid of 100 h values vs "
                  f"40-digit evaluation: max |dC| {worst_c:.2e}, "
                  f"max |dF_D| {worst_fd:.2e} (need <= 1e-12)")


def test_criterion_04_vstat_regime_signs():
    def trend_of(x):
        return v_statistic(estimate_hurst_rs(x, PLAN).curve).trend

    flat = np.mean([trend_of(white_noise(N, seed=s)) is Trend.FLAT
                    for s in range(SEEDS)])
    inc = np.mean([trend_of(fgn(N, 0.8, seed=4000 + s)) is Trend.INCREASING
                   for s in range(SEEDS)])
    dec = np.mean([trend_of(fgn(N, 0.2, seed=5000 + s)) is Trend.DECREASING
                   for s in range(SEEDS)])
    ok = flat >= 0.80 and inc >= 0.90 and dec >= 0.90
    report(4, ok, f"white noise Flat {flat:.0%} (need >= 80%), fGn H=0.8 "
                  f"Increasing {inc:.0%} (>= 90%), fGn H=0.2 Decreasing "
                  f"{dec:.0%} (>= 90%)")


def test_criterion_05_oracle_equivalence():
    rng = np.random.Generator(np.random.PCG64(20240501))
    worst_rs = worst_dfa = 0.0
    checked_rs = checked_dfa = 0
    for _ in range(200):
        length = int(rng.integers(16, 65))
        x = rng.normal(size=length)
        for n in (8, 16, 32):
            if length // n >= 1:
                worst_rs = max(worst_rs,
                               abs(rs_at_scale(x, n) - rs_oracle(x, n)))
                checked_rs += 1
        for tau in (4, 8):
            if length // tau >= 2:
                got = dfa_fluctuation(x, tau)
                ref = dfa_oracle(x, tau)
                worst_dfa = max(worst_dfa, abs(got - ref))
                checked_dfa += 1
    ok = worst_rs <= 1e-10 and worst_dfa <= 1e-10
    report(5, ok, f"{checked_rs} R/S and {checked_dfa} DFA comparisons on "
                  f"200 series of length <= 64: max |dRS| {worst_rs:.2e}, "
                  f"max |dF2| {worst_dfa:.2e} (need <= 1e-10)")


def test_criterion_06_rolling_protocol_exactness():
    rng = np.random.Generator(np.random.PCG64(606))
    windows = [64, 96, 128, 192, 250, 256, 500, 512]
    count_ok = True
    for _ in range(200):
        window = int(rng.choice(windows))
        lag = int(rng.integers(1, 50))
        length = window + int(rng.integers(0, 600))
        config = RollingConfig(window=window, lag=lag)
        trace = sweep(make_returns(rng.normal(size=length)), config)
        if trace.count != (length - window) // lag + 1:
            count_ok = False
            break
    spot_ok = True
    values = rng.normal(size=1500)
    config = RollingConfig(window=250, lag=7)
    trace = sweep(make_returns(values), config)
    for i in map(int, rng.integers(0, trace.count, size=20)):
        standalone = estimate_window(values[i * 7:i * 7 + 250], config)
        if (trace.h[i] != standalone.h
                or trace.r_squared[i] != standalone.r_squared):
            spot_ok = False
            break
    ok = count_ok and spot_ok
    report(6, ok, "count = floor((L-w)/lag)+1 on 200 random (L, w, lag) "
                  "triples; 20 spot-checked windows equal standalone "
                  "estimates bit-for-bit")


def test_criterion_07_crash_persistence():
    config = RollingConfig(window=250, lag=5)
    votes = 0
    diffs = []
    for seed in range(20):
        quiet = 0.01 * white_noise(1000, seed=7100 + seed)
        selloff = 0.01 * fgn(600, 0.85, seed=7200 + seed) - 0.002
        trace = sweep(make_returns(np.concatenate([quiet, selloff])), config)
        h = np.array(trace.h)
        diff = h[200:271].mean() - h[:151].mean()
        diffs.append(diff)
        votes += diff >= 0.1
    ok = votes >= 16
    report(7, ok, f"embedded H=0.85 negative-drift stretch lifts mean "
                  f"rolling h by >= 0.1 in {votes}/20 seeds (need >= 16); "
                  f"median lift {np.median(diffs):.3f}")


def test_criterion_08_downfall_oracle():
    mismatches = 0
    episodes_total = 0
    for seed in range(100):
        prices = random_walk_prices(500, seed=800 + seed, drift=-0.0002,
                                    volatility=0.02)
        got = extract_downfalls(prices)
        ref = downfall_oracle(prices)
        episodes_total += len(ref)
        if len(got) != len(ref):
            mismatches += 1
            continue
        for g, r in zip(got, ref):
            if ((g.peak_index, g.trough_index, g.recovery_index) != r[:3]
                    or abs(g.depth - r[3]) > 1e-10):
                mismatches += 1
                break
    ok = mismatches == 0
    report(8, ok, f"episode lists identical to the brute-force scanner on "
                  f"100 random-walk paths of length 500 "
                  f"({episodes_total} episodes, {mismatches} mismatches)")


def test_criterion_09_kurtosis_machinery():
    exact = excess_kurtosis([-1.0, 1.0] * 50) == -2.0
    rng = np.random.Generator(np.random.PCG64(909))
    normal_kurt = excess_kurtosis(rng.standard_normal(100_000))
    bulk = rng.normal(0.05, 0.01, size=200)
    tail = 0.10 * (1.0 + rng.pareto(1.5, size=20))
    downfalls = [mk_downfall(d, i) for i, d in enumerate(np.concatenate([bulk, tail]))]
    level = critical_cutoff(progressive_kurtosis(downfalls))
    separated = np.mean([
        classify_episode(mk_downfall(d), level).value == "leptokurtic"
        for d in tail])
    ok = exact and abs(normal_kurt) <= 0.1 and separated >= 0.8
    report(9, ok, f"alternating +/-1 kurtosis exactly -2: {exact}; 1e5 "
                  f"normal draws kurtosis {normal_kurt:+.4f} (|.| <= 0.1); "
                  f"cutoff at k={level.cutoff_index} sends {separated:.0%} "
                  f"of injected tail events to the leptokurtic segment "
                  f"(>= 80%)")


def test_criterion_10_determinism(tmp_path, capsys):
    def run(argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 0, captured.err
        return captured.out

    synth_args = ["synth", "--kind", "fgn", "--n", "512", "--h", "0.7",
                  "--seed", "33"]
    synth_ok = run(synth_args) == run(synth_args)

    prices_csv = run(["synth", "--kind", "prices", "--n", "601",
                      "--seed", "34", "--vol", "0.02"])
    path = tmp_path / "prices.csv"
    path.write_text(prices_csv)
    reports_ok = True
    for argv in (["hurst", str(path)],
                 ["rolling", str(path), "--window", "250", "--lag", "20"],
                 ["vstat", str(path)],
                 ["downfalls", str(path)]):
        if run(argv) != run(argv):
            reports_ok = False
            break
    ok = synth_ok and reports_ok
    report(10, ok, "synth output and hurst/rolling/vstat/downfalls reports "
                   "byte-identical across consecutive runs with fixed seeds")
