import datetime as dt
import math

import numpy as np
import pytest

from hurstlab.downfalls import (
    CriticalLevel,
    Downfall,
    KurtosisScan,
    Regime,
    classify_episode,
    critical_cutoff,
    excess_kurtosis,
    extract_downfalls,
    progressive_kurtosis,
    rank_size_points,
)
from hurstlab.errors import (
    EmptyScanError,
    InvalidSeriesError,
    NoDownfallsError,
    TooFewError,
    ZeroVarianceError,
)
from hurstlab.series import PriceSeries
from hurstlab.synthetic import random_walk_prices


def make_prices(closes):
    dates = tuple(dt.date(2021, 1, 1) + dt.timedelta(days=i)
                  for i in range(len(closes)))
    return PriceSeries(dates=dates, closes=np.array(closes, float))


def downfall_oracle(prices, lookback=126):
    """Brute-force reference scanner: naive trailing max, explicit state.

    Returns (peak_idx, trough_idx, recovery_idx_or_None, depth) tuples.
    """
    closes = [float(c) for c in prices.closes]
    n = len(closes)
    episodes = []
    peak = 0
    in_episode = False
    ceiling = None
    for t in range(1, n):
        c = closes[t]
        if in_episode:
            window = closes[max(0, t - lookback):t]
            if c >= min(ceiling, max(window)):
                stretch = closes[peak + 1:t]
                trough = peak + 1 + stretch.index(min(stretch))
                episodes.append((peak, trough, t,
                                 math.log(closes[peak]) - math.log(closes[trough])))
                in_episode = False
                peak = t
        elif c > closes[peak]:
            peak = t
        elif c < closes[peak]:
            in_episode = True
            ceiling = closes[peak]
    if in_episode:
        stretch = closes[peak + 1:]
        trough = peak + 1 + stretch.index(min(stretch))
        episodes.append((peak, trough, None,
                         math.log(closes[peak]) - math.log(closes[trough])))
    return episodes


def mk_downfall(depth, index=0, closed=True):
    base = dt.date(2021, 1, 1) + dt.timedelta(days=3 * index)
    return Downfall(
        peak_date=base, trough_date=base + dt.timedelta(days=1),
        recovery_date=base + dt.timedelta(days=2) if closed else None,
        depth=float(depth),
        peak_index=3 * index, trough_index=3 * index + 1,
        recovery_index=3 * index + 2 if closed else None,
    )


# -- extraction --------------------------------------------------------------

def test_monotone_up_no_episodes():
    assert extract_downfalls(make_prices([100, 101, 102, 103])) == []


def test_simple_dip_hand_trace():
    episodes = extract_downfalls(make_prices([100.0, 90.0, 80.0, 100.0]))
    assert len(episodes) == 1
    ep = episodes[0]
    assert ep.peak_index == 0
    assert ep.trough_index == 2
    assert ep.recovery_index == 3
    assert ep.depth == pytest.approx(math.log(100.0 / 80.0), abs=1e-12)
    assert ep.depth == pytest.approx(0.22314355131420976, abs=1e-12)
    assert ep.duration_days == 2
    assert not ep.is_open


def test_open_episode_at_series_end():
    episodes = extract_downfalls(make_prices([100.0, 95.0, 90.0]))
    assert len(episodes) == 1
    ep = episodes[0]
    assert ep.is_open
    assert ep.recovery_date is None
    assert ep.trough_index == 2


def test_recovery_via_trailing_window_high():
    # Price falls far below the old ceiling, then merely regains the
    # recent (lookback-window) high: that closes the episode.
    closes = [100.0] + [100.0 - 0.5 * i for i in range(1, 11)] + [97.0]
    episodes = extract_downfalls(make_prices(closes), lookback_days=5)
    assert len(episodes) == 1
    ep = episodes[0]
    # 97 >= max(last 5 bars) = 97 even though the 100 ceiling is far away
    assert ep.recovery_index == 11
    assert ep.trough_index == 10
    assert ep.depth == pytest.approx(math.log(100.0 / 95.0), abs=1e-12)


def test_oracle_equivalence_on_random_walks():
    for seed in range(30):
        prices = random_walk_prices(500, seed=seed, drift=-0.0002,
                                    volatility=0.02)
        got = [(e.peak_index, e.trough_index, e.recovery_index, e.depth)
               for e in extract_downfalls(prices)]
        expected = downfall_oracle(prices)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g[:3] == e[:3]
            assert g[3] == pytest.approx(e[3], abs=1e-10)


def test_episodes_never_overlap():
    prices = random_walk_prices(500, seed=77, volatility=0.03)
    episodes = extract_downfalls(prices)
    for first, second in zip(episodes, episodes[1:]):
        end = first.recovery_index if first.recovery_index is not None else 500
        assert second.peak_index >= end


def test_depth_equals_return_sum():
    prices = random_walk_prices(400, seed=13, volatility=0.02)
    returns = np.diff(np.log(prices.closes))
    for ep in extract_downfalls(prices):
        total = returns[ep.peak_index:ep.trough_index].sum()
        assert ep.depth == pytest.approx(-total, abs=1e-10)


def test_depths_scale_free():
    prices = random_walk_prices(400, seed=14, volatility=0.02)
    scaled = PriceSeries(dates=prices.dates,
                         closes=prices.closes * 1000.0)
    base = extract_downfalls(prices)
    big = extract_downfalls(scaled)
    assert [e.peak_index for e in base] == [e.peak_index for e in big]
    for e1, e2 in zip(base, big):
        assert e1.depth == pytest.approx(e2.depth, abs=1e-10)


def test_min_depth_filter():
    prices = random_walk_prices(400, seed=15, volatility=0.02)
    all_eps = extract_downfalls(prices)
    deep = extract_downfalls(prices, min_depth=0.05)
    assert len(deep) < len(all_eps)
    assert all(e.depth >= 0.05 for e in deep)
    assert [e.peak_index for e in deep] == [
        e.peak_index for e in all_eps if e.depth >= 0.05]


# -- rank-size ---------------------------------------------------------------

def test_rank_size_ordering():
    downfalls = [mk_downfall(d, i) for i, d in enumerate([8.0, 4.0, 2.0, 1.0])]
    points = rank_size_points(downfalls)
    assert points[0] == (pytest.approx(0.0), pytest.approx(math.log(8.0)))
    # Expected slope from the independent OLS oracle on the logged pairs.
    x = np.array([math.log(r) for r in (1, 2, 3, 4)])
    y = np.array([math.log(d) for d in (8.0, 4.0, 2.0, 1.0)])
    slope = float(((x - x.mean()) @ (y - y.mean())) / ((x - x.mean()) @ (x - x.mean())))
    got = np.array(points)
    fit = np.polyfit(got[:, 0], got[:, 1], 1)[0]
    assert fit == pytest.approx(slope, abs=1e-12)
    assert slope == pytest.approx(-1.4590219582913309, abs=1e-12)


def test_rank_size_single_downfall():
    points = rank_size_points([mk_downfall(0.25)])
    assert points == [(pytest.approx(0.0), pytest.approx(math.log(0.25)))]


def test_rank_size_empty_rejected():
    with pytest.raises(NoDownfallsError):
        rank_size_points([])
    with pytest.raises(NoDownfallsError):
        rank_size_points([mk_downfall(0.1, closed=False)])
    # a decline can vanish in log space; a zero depth has no ln
    with pytest.raises(NoDownfallsError):
        rank_size_points([mk_downfall(0.0), mk_downfall(0.0, 1)])
    assert rank_size_points([mk_downfall(0.0), mk_downfall(0.5, 1)]) == [
        (0.0, math.log(0.5))]


# -- kurtosis ----------------------------------------------------------------

def test_alternating_sample_exact_minus_two():
    for n in (4, 10, 100):
        values = [-1.0, 1.0] * (n // 2)
        assert excess_kurtosis(values) == -2.0


def test_normal_sample_near_zero():
    rng = np.random.Generator(np.random.PCG64(2024))
    assert abs(excess_kurtosis(rng.standard_normal(100_000))) < 0.1


def test_moment_oracle():
    values = [0.0, 0.0, 0.0, 1.0]
    m = sum(values) / 4.0
    m2 = sum((v - m) ** 2 for v in values) / 4.0
    m4 = sum((v - m) ** 4 for v in values) / 4.0
    expected = m4 / m2 ** 2 - 3.0
    assert excess_kurtosis(values) == pytest.approx(expected, abs=1e-12)
    assert excess_kurtosis(values) == pytest.approx(-0.6666666666666665,
                                                    abs=1e-12)


def test_kurtosis_errors():
    with pytest.raises(TooFewError):
        excess_kurtosis([1.0, 2.0, 3.0])
    with pytest.raises(ZeroVarianceError):
        excess_kurtosis([2.0, 2.0, 2.0, 2.0])
    for bad in ([1.0, math.nan, 2.0, 3.0], [1.0, math.inf, 2.0, 3.0],
                np.arange(8.0).reshape(2, 4)):
        with pytest.raises(InvalidSeriesError):
            excess_kurtosis(bad)


@pytest.mark.parametrize("values, scaled", [
    ([1e200, -1e200, 3e200, 5.0, 7.0], [1.0, -1.0, 3.0, 0.0, 0.0]),
    ([5e-324, 0.0, 1e-323, 0.0, 5e-324], [1.0, 0.0, 2.0, 0.0, 1.0]),
    ([1.7e308, -1.7e308, 1.7e308, -1.7e308, 0.0], [1.0, -1.0, 1.0, -1.0, 0.0]),
])
def test_kurtosis_is_scale_free_at_extreme_magnitudes(values, scaled):
    # The moments of these overflow or underflow unless rescaled.
    assert excess_kurtosis(values) == pytest.approx(excess_kurtosis(scaled),
                                                    rel=1e-12)


# -- progressive scan --------------------------------------------------------

def test_progressive_entries_match_prefixes():
    rng = np.random.Generator(np.random.PCG64(3))
    downfalls = [mk_downfall(d, i)
                 for i, d in enumerate(rng.uniform(0.01, 0.5, size=30))]
    scan = progressive_kurtosis(downfalls)
    depths = sorted(d.depth for d in downfalls)
    assert scan.upper_index == tuple(range(4, 31))
    for k, value, kurt in zip(scan.upper_index, scan.upper_value,
                              scan.excess_kurtosis):
        assert value == depths[k - 1]
        assert kurt == excess_kurtosis(depths[:k])
    assert scan.entries == tuple(zip(scan.upper_index, scan.upper_value,
                                     scan.excess_kurtosis))


def test_progressive_equal_depths_all_skipped():
    downfalls = [mk_downfall(0.2, i) for i in range(6)]
    scan = progressive_kurtosis(downfalls)
    assert scan == KurtosisScan((), (), (), skipped_subsets=(4, 5, 6))
    assert scan.entries == ()
    with pytest.raises(EmptyScanError):
        critical_cutoff(scan)


def test_progressive_needs_five():
    with pytest.raises(TooFewError):
        progressive_kurtosis([mk_downfall(0.1, i) for i in range(4)])


def test_open_episodes_excluded_by_default():
    downfalls = [mk_downfall(0.1 * (i + 1), i) for i in range(6)]
    downfalls.append(mk_downfall(9.9, 7, closed=False))
    scan = progressive_kurtosis(downfalls)
    assert max(scan.upper_value) < 9.0
    scan_open = progressive_kurtosis(downfalls, include_open=True)
    assert max(scan_open.upper_value) == pytest.approx(9.9)


# -- critical cutoff and classification --------------------------------------

def scan_from(kurtoses):
    return KurtosisScan(
        upper_index=tuple(range(4, 4 + len(kurtoses))),
        upper_value=tuple(0.1 * (i + 1) for i in range(len(kurtoses))),
        excess_kurtosis=tuple(kurtoses))


def test_cutoff_picks_nearest_zero():
    level = critical_cutoff(scan_from([-1.2, -0.1, 0.4]))
    assert level.kurtosis_at_cutoff == -0.1
    assert level.cutoff_index == 5


def test_cutoff_tie_goes_to_larger_subset():
    level = critical_cutoff(scan_from([0.2, -0.2]))
    assert level.cutoff_index == 5
    assert level.kurtosis_at_cutoff == -0.2


@pytest.mark.parametrize("kurtoses, index", [
    ([0.3, -0.1, 0.1, 0.5], 6),
    ([0.1, -0.1, 0.1, -0.1], 7),
    ([-0.1, 0.1, 0.2, 0.3], 5),
    ([0.0, 1.0, 0.0, 2.0], 6),
    ([0.7], 4),
])
def test_cutoff_ties_on_columns(kurtoses, index):
    scan = scan_from(kurtoses)
    level = critical_cutoff(scan)
    assert level.cutoff_index == index
    assert level.cutoff_depth == scan.upper_value[index - 4]
    assert level.kurtosis_at_cutoff == kurtoses[index - 4]


@pytest.mark.parametrize("columns", [
    dict(upper_index=(4, 5), upper_value=(0.1,), excess_kurtosis=(0.2, 0.3)),
    dict(upper_index=(4,), upper_value=(0.1,), excess_kurtosis=()),
    dict(upper_index=(), upper_value=(0.1,), excess_kurtosis=()),
])
def test_ragged_scan_columns_raise(columns):
    with pytest.raises(InvalidSeriesError, match="KurtosisScan columns differ"):
        KurtosisScan(**columns)


def test_duration_is_the_trough_index_minus_the_peak_index():
    for ep in extract_downfalls(random_walk_prices(2000, 4)):
        assert ep.duration_days == ep.trough_index - ep.peak_index


def test_boundary_classified_mesokurtic():
    level = CriticalLevel(cutoff_depth=0.3, cutoff_index=10,
                          kurtosis_at_cutoff=0.01)
    assert classify_episode(mk_downfall(0.3), level) is Regime.MESOKURTIC
    assert classify_episode(mk_downfall(0.6), level) is Regime.LEPTOKURTIC


def test_labeled_mixture_separation():
    rng = np.random.Generator(np.random.PCG64(2718))
    bulk = rng.normal(0.05, 0.01, size=200)
    assert bulk.min() > 0.0
    tail = 0.10 * (1.0 + rng.pareto(1.5, size=20))
    downfalls = [mk_downfall(d, i) for i, d in enumerate(bulk)]
    downfalls += [mk_downfall(d, 200 + i, closed=True)
                  for i, d in enumerate(tail)]
    scan = progressive_kurtosis(downfalls)
    level = critical_cutoff(scan)
    assert 150 <= level.cutoff_index <= 220
    labelled_tail = [classify_episode(mk_downfall(d), level) for d in tail]
    fraction = np.mean([r is Regime.LEPTOKURTIC for r in labelled_tail])
    assert fraction >= 0.8
