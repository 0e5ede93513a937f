import math
import os
from dataclasses import replace

import numpy as np
import pytest

from crossrx import (Aloha, Csma, Erlang, Exponential, LogNormal, NoMac,
                     OutageEstimate, PathLossSpec, Position, RoadConfig,
                     SimSettings, access_probability, analytic_view,
                     csma_intensity, path_loss, reception_probability,
                     sample_fading_array, simulate_outage,
                     simulate_outage_sweep, simulate_outages)
from crossrx import montecarlo
from crossrx.model import EUCLIDEAN
from crossrx.montecarlo import (STDERR_FLOOR, _chunk_sizes, _clear_of_tx,
                                _draw_chunk, _effective_lambda, _interference,
                                _pack, _plan_rows, _retain, _row_offsets,
                                _stream, _weighted_gains)

from conftest import CANYON, NOISE_W
from oracles import failure_fractions


# modest windows keep these tests quick; the truncation advisory is
# exercised explicitly in test_truncation_warnings
pytestmark = pytest.mark.filterwarnings(
    "ignore:expected interference truncated")


def philox(seed, counter):
    """A stream for test data; the engine's chunks draw from _stream."""
    return np.random.Generator(np.random.Philox(key=[seed, counter]))


def road_points(lam, window, rng):
    """One Poisson draw along a road: count, then uniform positions."""
    count = int(rng.poisson(2.0 * window * lam))
    return rng.uniform(-window, window, count)


def test_sim_settings_validation():
    with pytest.raises(ValueError):
        SimSettings(realizations=0)
    with pytest.raises(ValueError):
        SimSettings(realizations=10, window_half_length=0.0)
    with pytest.raises(ValueError):
        SimSettings(realizations=10, workers=0)
    for window in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            SimSettings(realizations=10, window_half_length=window)
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64"):
            SimSettings(realizations=10, seed=seed)
    SimSettings(realizations=10, seed=(1 << 64) - 1)
    # The estimator is fixed, not a setting.
    with pytest.raises(TypeError, match="estimator"):
        SimSettings(realizations=10, estimator="conditional")


def as_mask(idx, size):
    """Retained indices as a mask over a road's flat arrays."""
    mask = np.zeros(size, dtype=bool)
    mask[idx] = True
    return mask


def row_starts(counts):
    """Where each row's nodes start in a road's flat arrays, and the end."""
    return np.concatenate(([0], np.cumsum(counts)))


def thin_csma(ph, pv, tx, delta, rng):
    """Matern II retention of one realization, conditioned on tx active,
    through the engine's kernel: marks are drawn from ``rng`` (H road,
    then V), and tx kills everything within delta of it. The kernel
    takes each road sorted by position; the survivors come back in the
    order of ``ph`` and ``pv``."""
    marks_h = rng.random(ph.size)
    marks_v = rng.random(pv.size)
    extent = max(float(np.abs(ph).max()) if ph.size else 0.0,
                 float(np.abs(pv).max()) if pv.size else 0.0,
                 abs(tx.x), abs(tx.y), delta)
    order_h, order_v = np.argsort(ph), np.argsort(pv)
    kept_h, kept_v = _retain(
        _pack(ph[order_h], _row_offsets([ph.size], extent), marks_h[order_h],
              extent),
        _pack(pv[order_v], _row_offsets([pv.size], extent), marks_v[order_v],
              extent), [delta])[delta]
    keep_h = as_mask(order_h[kept_h], ph.size) & _clear_of_tx("h", ph, tx, delta)
    keep_v = as_mask(order_v[kept_v], pv.size) & _clear_of_tx("v", pv, tx, delta)
    return ph[keep_h], pv[keep_v]


def brute_matern(ph, pv, marks_h, marks_v, tx, delta):
    """O(n^2) reference for the retention rule: survive iff the own mark
    is the window minimum on the own road (window includes the node) and
    strictly beats every cross-road competitor in the chord through the
    intersection; anything within delta of the tagged tx dies."""

    def one_road(own_pos, own_marks, cross_pos, cross_marks, along, perp):
        keep = np.zeros(own_pos.size, dtype=bool)
        for i in range(own_pos.size):
            x, m = own_pos[i], own_marks[i]
            if (x - along) ** 2 + perp ** 2 <= delta ** 2:
                continue
            own_min = own_marks[np.abs(own_pos - x) <= delta].min()
            gap = delta ** 2 - x * x
            cross = (cross_marks[np.abs(cross_pos) <= math.sqrt(gap)]
                     if gap >= 0.0 else np.empty(0))
            cross_min = cross.min() if cross.size else np.inf
            keep[i] = (m == own_min) and (m < cross_min)
        return keep

    kh = one_road(ph, marks_h, pv, marks_v, tx.x, tx.y)
    kv = one_road(pv, marks_v, ph, marks_h, tx.y, tx.x)
    return ph[kh], pv[kv]


@pytest.mark.parametrize("tx", [Position(0.0, 0.0), Position(40.0, 0.0),
                                Position(0.0, -55.0)])
def test_thin_csma_matches_brute_force(tx):
    delta, lam, window = 30.0, 0.05, 300.0
    for t in range(200):
        rng_pts = philox(7, t)
        ph = road_points(lam, window, rng_pts)
        pv = road_points(lam, window, rng_pts)
        got_h, got_v = thin_csma(ph, pv, tx, delta, philox(99, t))
        # identical stream, identical draw order: marks H first, then V
        rng_ref = philox(99, t)
        marks_h = rng_ref.random(ph.size)
        marks_v = rng_ref.random(pv.size)
        exp_h, exp_v = brute_matern(ph, pv, marks_h, marks_v, tx, delta)
        np.testing.assert_array_equal(got_h, exp_h)
        np.testing.assert_array_equal(got_v, exp_v)


def flat_chunk(counter):
    """One chunk's CSMA draws as the engine lays them out, from stream
    (31, counter): each row draws its own count, one V row has no node,
    and each road's positions lie row after row, sorted within each row.
    The window is only a few hundred metres wide, so many nodes on both
    roads see the other road. Returns the window half-length and, per
    road, (counts, positions, row offsets, marks)."""
    lam, window, nrows = 0.05, 300.0, 40
    rng = philox(31, counter)
    counts_h = rng.poisson(2.0 * window * lam, nrows)
    counts_v = rng.poisson(2.0 * window * lam, nrows)
    counts_v[3] = 0
    roads = []
    for counts in (counts_h, counts_v):
        row = np.repeat(np.arange(nrows), counts)
        pos = rng.uniform(-window, window, row.size)
        roads.append([counts, pos[np.lexsort((pos, row))],
                      _row_offsets(counts, window)])
    for road in roads:
        road.append(rng.random(road[1].size))
    return window, tuple(roads[0]), tuple(roads[1])


def without_nodes(road):
    """The same rows with no node in any of them."""
    counts, pos, off, marks = road
    return np.zeros_like(counts), pos[:0], off[:0], marks[:0]


def check_kept(kept, size):
    """Retained indices are increasing and point at nodes."""
    assert (np.diff(kept) > 0).all()
    assert kept.size == 0 or (kept[0] >= 0 and kept[-1] < size)


@pytest.mark.parametrize("delta", [30.0, 120.0])
def test_batched_retention_matches_brute_force(delta):
    # The flat chunk, with a window only a few delta wide; the same H
    # road is then run again against a V road with no node in any row.
    window, road_h, road_v = flat_chunk(int(delta))
    counts_h, pos_h, off_h, marks_h = road_h
    nrows = len(counts_h)
    starts_h = row_starts(counts_h)
    assert (road_v[0] == 0).any() and (counts_h != counts_h[0]).any()
    assert (np.abs(pos_h) <= delta).sum() > nrows
    assert (np.abs(road_v[1]) <= delta).sum() > nrows

    for counts_v, pos_v, off_v, marks_v in (road_v, without_nodes(road_v)):
        starts_v = row_starts(counts_v)
        kept_h, kept_v = _retain(_pack(pos_h, off_h, marks_h, window),
                                 _pack(pos_v, off_v, marks_v, window),
                                 [delta])[delta]
        check_kept(kept_h, pos_h.size)
        check_kept(kept_v, pos_v.size)
        keep_h = as_mask(kept_h, pos_h.size)
        keep_v = as_mask(kept_v, pos_v.size)
        for tx in (Position(0.0, 0.0), Position(40.0, 0.0),
                   Position(0.0, -55.0), Position(70.0, 90.0)):
            got_h = keep_h & _clear_of_tx("h", pos_h, tx, delta)
            got_v = keep_v & _clear_of_tx("v", pos_v, tx, delta)
            for r in range(nrows):
                rh = slice(starts_h[r], starts_h[r + 1])
                rv = slice(starts_v[r], starts_v[r + 1])
                exp_h, exp_v = brute_matern(pos_h[rh], pos_v[rv], marks_h[rh],
                                            marks_v[rv], tx, delta)
                np.testing.assert_array_equal(pos_h[rh][got_h[rh]], exp_h)
                np.testing.assert_array_equal(pos_v[rv][got_v[rv]], exp_v)


def test_nested_retention_matches_brute_force():
    # One call for several deltas, unsorted and with a duplicate, from one
    # below the node spacing (20 m) to one wider than a whole row (600
    # m): each delta must get the nodes that a call for it alone and the
    # per-row brute force give, and the retained sets must shrink as delta
    # grows. The transmitter is too far away for its kill disc to matter.
    deltas = [120.0, 5.0, 700.0, 30.0, 120.0, 60.0]
    far = Position(1e6, 1e6)
    window, road_h, road_v = flat_chunk(30)
    counts_h, pos_h, off_h, marks_h = road_h
    starts_h = row_starts(counts_h)
    for counts_v, pos_v, off_v, marks_v in (road_v, without_nodes(road_v)):
        starts_v = row_starts(counts_v)
        h = _pack(pos_h, off_h, marks_h, window)
        v = _pack(pos_v, off_v, marks_v, window)
        kept = _retain(h, v, deltas)
        assert sorted(kept) == [5.0, 30.0, 60.0, 120.0, 700.0]
        wider = None
        for delta in sorted(kept, reverse=True):
            kept_h, kept_v = kept[delta]
            alone_h, alone_v = _retain(h, v, [delta])[delta]
            np.testing.assert_array_equal(kept_h, alone_h)
            np.testing.assert_array_equal(kept_v, alone_v)
            check_kept(kept_h, pos_h.size)
            check_kept(kept_v, pos_v.size)
            keep_h = as_mask(kept_h, pos_h.size)
            keep_v = as_mask(kept_v, pos_v.size)
            for r in range(len(counts_h)):
                rh = slice(starts_h[r], starts_h[r + 1])
                rv = slice(starts_v[r], starts_v[r + 1])
                exp_h, exp_v = brute_matern(pos_h[rh], pos_v[rv], marks_h[rh],
                                            marks_v[rv], far, delta)
                np.testing.assert_array_equal(pos_h[rh][keep_h[rh]], exp_h)
                np.testing.assert_array_equal(pos_v[rv][keep_v[rv]], exp_v)
            if wider is not None:
                assert np.isin(wider[0], kept_h).all()
                assert np.isin(wider[1], kept_v).all()
            wider = kept_h, kept_v
        assert kept[700.0][0].size < kept[60.0][0].size < kept[5.0][0].size


def test_thin_csma_retained_density(make_scenario):
    # Far from tx and the intersection the retained process has intensity
    # p_A * lambda with p_A = (1 - e^-(2 delta lambda)) / (2 delta lambda).
    delta, lam, window = 200.0, 0.01, 10000.0
    tx = Position(0.0, 0.0)
    scen = make_scenario(Csma(delta))
    closure = csma_intensity("h", scen, tx)
    far = closure(5000.0)
    assert np.isclose(far, (1 - math.exp(-4.0)) / 4.0 * lam, rtol=1e-12)

    count = 0
    for t in range(300):
        rng = philox(13, t)
        ph = road_points(lam, window, rng)
        pv = road_points(lam, window, rng)
        kept_h, _ = thin_csma(ph, pv, tx, delta, philox(17, t))
        assert (kept_h ** 2 > delta ** 2).all()  # tx clears its disc
        band = (np.abs(kept_h) >= 2000.0) & (np.abs(kept_h) <= 9000.0)
        count += int(band.sum())
    expected = far * 14000.0 * 300
    # hard-core thinning is sub-Poisson, so the Poisson band is generous
    assert abs(count - expected) < 4 * math.sqrt(expected)


def test_outage_matches_noise_only_limit(make_scenario, make_link):
    scen = make_scenario(Aloha(0.0))
    link = make_link((500, 0), (0, 0))
    settings = SimSettings(realizations=20000, seed=4)
    est = simulate_outage(scen, link, settings)
    analytic = 1.0 - reception_probability(scen, link)
    assert est.std_err > 0
    assert abs(est.p_out - analytic) < 4 * est.std_err
    # NoMac is the same interference-free channel, chunk for chunk
    est_free = simulate_outage(make_scenario(NoMac()), link, settings)
    assert est_free.p_out == est.p_out


def test_outage_tracks_analytic_with_interference(make_scenario, make_link):
    scen = make_scenario(Aloha(0.01))
    link = make_link((100, 0), (0, 0))
    est = simulate_outage(scen, link,
                          SimSettings(realizations=40000, seed=2,
                                      window_half_length=50000.0))
    analytic = 1.0 - reception_probability(scen, link)
    assert abs(est.p_out - analytic) < 4 * est.std_err


@pytest.mark.parametrize("sigma_db, k0", [(1.0, 19), (0.7, 39), (0.6, 53)])
def test_outage_tracks_analytic_at_high_erlang_shape(make_scenario, make_link,
                                                     sigma_db, k0):
    # Narrow log-normal spreads fit large Erlang shapes: reception needs
    # derivatives up to order k0 - 1.
    scen = analytic_view(make_scenario(Aloha(0.02),
                                       fading_useful=LogNormal(sigma_db)))
    assert scen.fading_useful.k == k0
    link = make_link((0, 0), (150, 0))
    est = simulate_outage(scen, link,
                          SimSettings(realizations=20000, seed=2,
                                      window_half_length=50000.0))
    analytic = 1.0 - reception_probability(scen, link)
    assert abs(est.p_out - analytic) < 4 * est.std_err


def test_estimate_bookkeeping(make_scenario, make_link):
    # The estimate is the merged mean of the p_r and its error bar the
    # sample standard error of that mean, floored; on two chunks (2500 +
    # 2500 rows), so the merge is exercised, at worker counts 1 and 2.
    scen = make_scenario(Aloha(0.05))
    link = make_link((200, 0), (0, 0))
    for workers in (1, 2):
        settings = SimSettings(realizations=5000, seed=9,
                               window_half_length=5000.0, workers=workers)
        assert -(-5000 // _plan_rows(scen, settings)) == 2
        [[(n, _, mean, m2)]] = montecarlo._merged_stats([(scen, [link])],
                                                        settings)
        est = simulate_outage(scen, link, settings)
        assert isinstance(est, OutageEstimate)
        assert n == 5000 and est.p_out == mean
        assert est.std_err == max(math.sqrt(m2 / (n * (n - 1))), 2.0 ** -52)
        assert est.std_err > STDERR_FLOOR


def test_estimators_agree_on_the_same_draws(make_scenario, make_link):
    # The conditional estimator against the failure count, on the same
    # two-chunk draws, for Aloha and CSMA and three useful fadings: (a)
    # they agree within 4 combined standard errors, the failure count's
    # taken as binomial at the conditional estimate (a count of 0 reports
    # the floor, though its law has sqrt(p / n)); (b) each conditional
    # error bar is within sqrt(p (1 - p) / (n - 1)), which holds because
    # every p_r is in [0, 1]; (c) the worker count, which changes how the
    # chunks are evaluated but not the order they are merged in, changes
    # no conditional estimate.
    links = ([make_link((10.0 + 60.0 * i, 0.0), (0.0, 0.0)) for i in range(5)]
             + [make_link((0.0, 150.0), (0.0, 0.0)),
                make_link((0.0, 150.0), (200.0, 0.0)),
                make_link((0.0, -40.0), (60.0, 0.0))])
    for mac, n in ((Aloha(0.05), 5000), (Csma(500.0), 400)):
        for fading in (Exponential(), Erlang(3, 1.0 / 3.0), LogNormal(3.2)):
            scen = make_scenario(mac, fading_useful=fading)
            runs = {}
            for workers in (1, 2, 3):
                settings = SimSettings(realizations=n, seed=13,
                                       window_half_length=12000.0,
                                       workers=workers)
                runs[workers] = simulate_outage_sweep(scen, links, settings)
            assert -(-n // _plan_rows(scen, settings)) == 2
            assert runs[1] == runs[2] == runs[3]
            counted = failure_fractions(scen, links, SimSettings(
                realizations=n, seed=13, window_half_length=12000.0))
            for cond, ind in zip(runs[1], counted):
                p = cond.p_out
                assert 0.0 < p < 1.0
                binomial = math.sqrt(p * (1.0 - p) / n)
                assert (abs(p - ind.p_out)
                        <= 4.0 * math.hypot(cond.std_err, binomial))
                assert cond.std_err <= (math.sqrt(p * (1.0 - p) / (n - 1))
                                        + STDERR_FLOOR)


# The edge cases of the conditional estimator below may give no NaN and
# no RuntimeWarning, which the suite makes an error.

def test_zero_useful_gain(make_scenario, make_link):
    # At 1e200 m the useful path gain underflows to 0: with noise to beat
    # every realization fails (p_r = 1); with neither noise nor an
    # interferer nothing is to be beaten (p_r = 0), as the failure
    # count's strict comparison has it. Both estimators agree, and a
    # link beside it in the same sweep keeps its own estimate.
    far = ((1e200, 0.0), (0.0, 0.0))
    near = make_link((100.0, 0.0), (0.0, 0.0))
    assert path_loss(make_scenario(Aloha(0.0)).loss_useful,
                     Position(*far[0]), Position(*far[1])) == 0.0
    settings = SimSettings(realizations=300, window_half_length=3000.0,
                           seed=3)
    for noise_w, p_out in ((NOISE_W, 1.0), (0.0, 0.0)):
        scen = make_scenario(Aloha(0.0))
        links = [make_link(*far, noise_w=noise_w), near]
        sweep = simulate_outage_sweep(scen, links, settings)
        counted = failure_fractions(scen, links, settings)
        assert sweep[0] == counted[0] == OutageEstimate(p_out, STDERR_FLOOR)
        assert sweep[1] == simulate_outage(scen, near, settings)
        assert counted[1] == failure_fractions(scen, [near], settings)[0]
    # Interference alone against a useful gain of 0 fails exactly the
    # realizations with an interferer.
    scen, link = make_scenario(Aloha(0.002)), make_link(*far, noise_w=0.0)
    est = simulate_outage(scen, link, settings)
    [counted] = failure_fractions(scen, [link], settings)
    assert est.p_out == counted.p_out and 0.0 < est.p_out < 1.0


def test_zero_threshold_on_the_lognormal_route(make_scenario, make_link):
    # Log-normal useful fading takes ln t: t = 0, in every realization
    # without noise or an interferer, gives ln 0 = -inf and p_r = 0.
    settings = SimSettings(realizations=300, window_half_length=3000.0,
                           seed=3)
    silent = make_link((100.0, 0.0), (0.0, 0.0), noise_w=0.0)
    shadowed = LogNormal(3.2)
    est = simulate_outage(make_scenario(Aloha(0.0), fading_useful=shadowed),
                          silent, settings)
    assert est == OutageEstimate(0.0, STDERR_FLOOR)
    est = simulate_outage(make_scenario(Aloha(0.002), fading_useful=shadowed),
                          silent, settings)
    assert 0.0 < est.p_out < 1.0 and est.std_err > STDERR_FLOOR


def test_equal_outcomes_report_the_floor(make_scenario, make_link):
    # Noise only: every realization has the same p_r, the analytic
    # outage, so the sample error is 0 and the floor is reported.
    link = make_link((500.0, 0.0), (0.0, 0.0))
    scen = make_scenario(Aloha(0.0))
    est = simulate_outage(scen, link, SimSettings(
        realizations=300, window_half_length=3000.0, seed=3))
    assert est.std_err == STDERR_FLOOR
    analytic = 1.0 - reception_probability(scen, link)
    assert abs(est.p_out - analytic) <= 4 * STDERR_FLOOR


def test_one_realization_error_bar(make_scenario, make_link):
    # One realization has no sample variance: the error bar is the bound
    # sqrt(p (1 - p)) that any [0, 1]-valued draw obeys.
    for mac in (Aloha(0.05), Csma(300.0), Aloha(0.0)):
        for fading in (Exponential(), Erlang(3, 1.0 / 3.0), LogNormal(3.2)):
            est = simulate_outage(
                make_scenario(mac, fading_useful=fading),
                make_link((300.0, 0.0), (0.0, 0.0)),
                SimSettings(realizations=1, window_half_length=3000.0))
            p = est.p_out
            assert 0.0 <= p <= 1.0
            assert est.std_err == max(math.sqrt(p * (1.0 - p)), STDERR_FLOOR)


def test_sweep_is_linkwise_identical(make_scenario, make_link):
    # draws never depend on the link list, so sweep entries must match
    # one-link runs bit for bit
    settings = SimSettings(realizations=3000, seed=21,
                           window_half_length=5000.0)
    links = [make_link((100, 0), (0, 0)), make_link((350, 0), (100, 0))]
    scen = make_scenario(Aloha(0.05))
    sweep = simulate_outage_sweep(scen, links, settings)
    for link, est in zip(links, sweep):
        assert simulate_outage(scen, link, settings).p_out == est.p_out

    scen = make_scenario(Csma(300.0))
    settings = SimSettings(realizations=400, seed=21,
                           window_half_length=3000.0)
    links = [make_link((0, 0), (100, 0)), make_link((0, 150), (100, 0))]
    sweep = simulate_outage_sweep(scen, links, settings)
    for link, est in zip(links, sweep):
        assert simulate_outage(scen, link, settings).p_out == est.p_out


def flat_road(mean, rows, fading, rng, window=5000.0):
    """One road's draws in a chunk's flat layout: each row's Poisson
    count, then the positions and the fading of the nodes of every row,
    row after row; returned as (positions, fading, row starts)."""
    counts = rng.poisson(mean, rows)
    pos = rng.uniform(-window, window, counts.sum())
    return pos, sample_fading_array(fading, rng, (pos.size,)), row_starts(counts)


def per_receiver_interference(scen, roads, rx, tx=None, delta=None):
    """Reference: each road's gains at rx, from the squared distance, and
    per row the sum of its nodes' gains in draw order, the first node's
    gain plus numpy's sum of the others (the order in which
    np.add.reduceat sums a segment), H then V. With a transmitter ``tx``
    and a sensing range ``delta``, the gains of the nodes within delta of
    tx are 0.0 before the sums."""
    total = np.zeros(len(roads[0][2]) - 1)
    for road, (pos, fad, starts), loss in zip(
            ("h", "v"), roads, (scen.loss_h, scen.loss_v)):
        if road == "h":
            d = pos - rx.x
            r_sq = d * d
        elif loss.norm == EUCLIDEAN:
            r_sq = pos * pos + rx.x * rx.x
        else:
            d = abs(rx.x) + np.abs(pos)
            r_sq = d * d
        gains = fad * (loss.amplitude_a * r_sq ** (-loss.alpha / 2.0))
        if delta is not None:
            along, perp = (tx.x, tx.y) if road == "h" else (tx.y, tx.x)
            gains[(pos - along) ** 2 + perp ** 2 <= delta * delta] = 0.0
        for row, (lo, hi) in enumerate(zip(starts[:-1], starts[1:])):
            if hi > lo:
                total[row] += gains[lo] + gains[lo + 1:hi].sum()
    return total


def loss(norm, alpha):
    return PathLossSpec(norm=norm, amplitude_a=3e-5, alpha=alpha)


# delta comes last in the ids, after the road layout and the block size.
@pytest.mark.parametrize("delta", [None, 300.0])
@pytest.mark.parametrize("rows, mean_h, mean_v, loss_h, loss_v, fading", [
    # 700 rows: not a multiple of the rows per block
    (700, 60.0, 45.0, loss("euclidean", 2.0), loss("euclidean", 2.0),
     (Exponential(), Exponential())),
    (700, 60.0, 45.0, loss("manhattan", 3.0), loss("manhattan", 3.0),
     (Erlang(3, 0.4), LogNormal(3.2))),
    (500, 0.0, 80.0, loss("euclidean", 3.0), loss("manhattan", 2.0),
     (Erlang(3, 0.4), LogNormal(3.2))),
    # H rows wider than a block, no V node in any row
    (3, 40000.0, 0.0, loss("euclidean", 2.0), loss("euclidean", 3.0),
     (LogNormal(3.2), Exponential())),
    # A row fits in a block, but not once per receiver: one row a block
    (40, 8000.0, 50.0, loss("euclidean", 2.0), loss("manhattan", 3.0),
     (Exponential(), Erlang(3, 0.4))),
    # Most rows of each road without a node
    (700, 0.5, 0.5, loss("euclidean", 3.0), loss("manhattan", 2.0),
     (Erlang(3, 0.4), LogNormal(3.2))),
    # No node on either road, as in an Aloha p = 0 chunk
    (50, 0.0, 0.0, loss("euclidean", 2.0), loss("euclidean", 2.0),
     (Exponential(), Exponential())),
])
@pytest.mark.parametrize("block_cells", [None, 7])
def test_aloha_pass_matches_per_receiver_formula(
        make_scenario, make_link, monkeypatch, rows, mean_h, mean_v, loss_h,
        loss_v, fading, block_cells, delta):
    # The blocked pass over all links must give every link's
    # per-realization interference bit for bit, whatever the block size
    # and whatever the order or repeats of the links. Without a kill disc
    # (delta None, as under Aloha) exactly the rows with a node read above
    # 0.0; with one (as under CSMA) some link's disc silences a node. The
    # links share transmitters and receivers, repeat one link, and one
    # transmitter, (80, 120), lies off both roads.
    if block_cells is not None:
        monkeypatch.setattr(montecarlo, "_BLOCK_CELLS", block_cells)
    rng = philox(5, rows)
    pos_h, fad_h, starts_h = flat_road(mean_h, rows, fading[0], rng)
    pos_v, fad_v, starts_v = flat_road(mean_v, rows, fading[1], rng)
    assert (pos_h.size == 0) == (mean_h == 0.0)
    assert (pos_v.size == 0) == (mean_v == 0.0)
    occupied = (np.diff(starts_h) > 0) | (np.diff(starts_v) > 0)
    if 0.0 < mean_h < 1.0:
        assert (np.diff(starts_h) == 0).mean() > 0.5
        assert (np.diff(starts_v) == 0).mean() > 0.5
        assert 0 < occupied.sum() < rows
    roads = [(pos_h, fad_h, starts_h), (pos_v, fad_v, starts_v)]
    mac = Aloha(0.05) if delta is None else Csma(delta)
    scen = make_scenario(mac, loss_h=loss_h, loss_v=loss_v)
    links = [make_link((0, 0), (0, 0)), make_link((0, 0), (110, 0)),
             make_link((0, 150), (110, 0)), make_link((80, 120), (0, 0)),
             make_link((0, 0), (-37.5, 0)), make_link((110, 0), (2500, 0)),
             make_link((0, 0), (110, 0))]
    # 24 distinct receivers in all
    links += [make_link((0, 150) if i % 2 else (80, 120),
                        (250.0 * i - 2999.5, 0)) for i in range(20)]
    assert len({link.rx for link in links}) == 24
    got = _interference(scen, roads, links, delta)
    assert len(got) == len(links) and all(row.shape == (rows,) for row in got)
    silenced = False
    for link, row in zip(links, got):
        everyone = per_receiver_interference(scen, roads, link.rx)
        assert ((everyone > 0.0) == occupied).all()
        expected = (everyone if delta is None else per_receiver_interference(
            scen, roads, link.rx, link.tx, delta))
        silenced |= bool((expected < everyone).any())
        assert (row == expected).all(), link
    assert silenced == (delta is not None and occupied.any())
    for others in (links[::-1], links[3:] + links):
        again = dict(zip(others, _interference(scen, roads, others, delta)))
        for link, row in zip(links, got):
            assert (again[link] == row).all(), link


@pytest.mark.parametrize("road, norm", [
    ("h", "euclidean"), ("h", "manhattan"),
    ("v", "euclidean"), ("v", "manhattan")])
@pytest.mark.parametrize("alpha", [2.0, 2.5, 3.0, 4.0])
def test_weighted_gains_match_the_power_law(road, norm, alpha):
    # Gains come from the squared distance, (r^2)^(-alpha / 2); they must
    # agree with fad * (A * r ** -alpha) to within rounding, in the flat
    # (CSMA) form and written into a block of a larger buffer (Aloha).
    rng = philox(9, int(alpha * 10))
    pos = rng.uniform(-400000.0, 400000.0, (6, 40))
    pos[0, :8] = [0.5, -0.5, 1e-3, 9.5, -9.5, 111.0, -38.0, 3.0]
    fad = sample_fading_array(Erlang(3, 0.4), rng, pos.shape)
    loss = PathLossSpec(norm=norm, amplitude_a=3e-5, alpha=alpha)
    for x in (0.0, 10.0, -37.5, 110.0):
        rx = Position(x, 0.0)
        if road == "h":
            r = np.abs(pos - x)
        elif norm == EUCLIDEAN:
            r = np.hypot(x, pos)
        else:
            r = abs(x) + np.abs(pos)
        expected = fad * (loss.amplitude_a * r ** -alpha)
        flat = _weighted_gains(road, pos.ravel(), fad.ravel(), loss,
                               np.array([x]))[0]
        np.testing.assert_allclose(flat, expected.ravel(), rtol=2e-15, atol=0)
        buf = np.full(pos.size + 5, np.nan)
        out = buf[:pos.size].reshape((1,) + pos.shape)
        assert _weighted_gains(road, pos, fad, loss, np.array([x]), out) is out
        np.testing.assert_allclose(out[0], expected, rtol=2e-15, atol=0)
        assert np.isnan(buf[pos.size:]).all()
        for z, f, g in zip(pos[0, :8], fad[0, :8], out[0, 0, :8]):
            node = Position(z, 0.0) if road == "h" else Position(0.0, z)
            assert g == pytest.approx(path_loss(loss, node, rx) * f,
                                      rel=2e-15, abs=0)


def test_reciprocal_has_the_bits_of_power_minus_one():
    # The gain kernel takes np.reciprocal at alpha = 2 in place of
    # ``** -1.0``; the output bits rest on the two being equal.
    rng = philox(4, 0)
    x = np.concatenate((
        [np.inf, 5e-324, 1e-310, 1e300, np.finfo(float).max],
        np.exp(rng.uniform(-700.0, 700.0, 10 ** 6))))
    with np.errstate(all="ignore"):
        assert np.array_equal(np.reciprocal(x), x ** -1.0)


@pytest.mark.parametrize("macs", [
    [Aloha(0.1), Aloha(0.3), Aloha(0.02), Aloha(0.1)],
    [Csma(150.0), Csma(400.0)]])
def test_draw_chunk_layout(make_scenario, make_link, macs, monkeypatch):
    # The chunk's stream, replayed: per road (H, V) one Poisson draw of
    # (level x row) counts, one level under CSMA and one per distinct p
    # under Aloha, the smallest p first, each level's mean less the one
    # below it; then the positions, [the marks under CSMA], the fading
    # and the useful fading, and nothing after. Each road holds exactly
    # its counts' sum of nodes, inside the window, in draw order under
    # Aloha and row after row, ascending within each row, under CSMA.
    # Under Aloha the road's arrays are read as segments (level, row),
    # level-major, and the pass gives one interference row per (p,
    # receiver). A CSMA chunk comes back retained at the delta of every
    # scenario it was drawn for, and the retained indices of each road
    # increase and point at its nodes.
    scenarios = [make_scenario(mac) for mac in macs]
    links = [make_link((100.0, 0.0), (0.0, 0.0)),
             make_link((0.0, 150.0), (60.0, 0.0))]
    settings = SimSettings(realizations=50, window_half_length=2000.0, seed=6)
    w, rows = settings.window_half_length, 50
    is_csma = isinstance(macs[0], Csma)
    streams = []
    monkeypatch.setattr(montecarlo, "_stream",
                        lambda *key: streams.append(_stream(*key)) or streams[-1])
    chunk = _draw_chunk(scenarios, settings, 3, rows)
    assert chunk.index == 3 and chunk.s0.shape == (rows,)
    rng = _stream(6, 3)
    if is_csma:
        counts = [rng.poisson(2.0 * w * _effective_lambda(scenarios[0], road),
                              rows) for road in ("h", "v")]
    else:
        counts = []
        for road in ("h", "v"):
            means = [2.0 * w * _effective_lambda(make_scenario(Aloha(p)), road)
                     for p in (0.02, 0.1, 0.3)]
            layers = np.array(means) - np.array([0.0] + means[:-1])
            counts.append(rng.poisson(layers[:, None], (3, rows)).ravel())
    drawn = [rng.uniform(-w, w, c.sum()) for c in counts]
    for c, pos, fad, z, starts in zip(counts, chunk.pos, chunk.fad, drawn,
                                      chunk.starts):
        assert (c < c.max()).any()
        assert pos.shape == fad.shape == (c.sum(),)
        assert (np.abs(pos) <= w).all()
        assert (starts == row_starts(c)).all()
        if is_csma:
            for lo, hi in zip(starts[:-1], starts[1:]):
                assert (np.diff(pos[lo:hi]) > 0).all()
                np.testing.assert_array_equal(pos[lo:hi], np.sort(z[lo:hi]))
            # The order of one argsort of the Matern keys, row by row.
            np.testing.assert_array_equal(
                pos, z[np.argsort(z + _row_offsets(c, w))])
        else:
            np.testing.assert_array_equal(pos, z)
    if is_csma:
        for z in chunk.pos:
            rng.random(z.size)
    scen = scenarios[0]
    for f, fad in zip((scen.fading_h, scen.fading_v), chunk.fad):
        np.testing.assert_array_equal(
            fad, sample_fading_array(f, rng, fad.shape))
    np.testing.assert_array_equal(
        chunk.s0, sample_fading_array(scen.fading_useful, rng, (rows,)))
    [stream] = streams
    np.testing.assert_array_equal(stream.bit_generator.random_raw(8),
                                  rng.bit_generator.random_raw(8))
    if is_csma:
        assert sorted(chunk.kept) == [150.0, 400.0]
        assert chunk.levels == (macs[0],) and chunk.interference is None
        for kept in chunk.kept.values():
            for pos, road_kept in zip(chunk.pos, kept):
                assert road_kept.size
                check_kept(road_kept, pos.size)
        return
    assert chunk.kept is None and chunk.interference is None
    assert chunk.levels == (Aloha(0.02), Aloha(0.1), Aloha(0.3))
    passed = montecarlo._level_interference(scenarios[0], links, chunk)
    assert sorted(passed.interference, key=lambda k: (k[0].p, k[1].x)) == [
        (Aloha(p), Position(x, 0.0)) for p in (0.02, 0.1, 0.3)
        for x in (0.0, 60.0)]
    assert all(row.shape == (rows,) for row in passed.interference.values())


def test_aloha_layers_are_independent_poisson_counts(make_scenario, make_link,
                                                     roads):
    # Each road's layer k holds, per row, a Poisson count of mean and
    # variance 2 w (p_k - p_(k-1)) lambda, the smallest p first; the
    # p = 0 layer is empty, and so is that p's interference. Both checks
    # are within 5 standard errors over 4000 rows: sqrt(m / n) for the
    # mean and sqrt((m + 2 m^2) / n), the Poisson law's, for the
    # variance. A group with one p draws its counts as a lone Poisson
    # draw of that p's mean per road, H then V.
    ps = [0.3, 0.0, 0.05, 0.01, 0.2]
    links = [make_link((100.0, 0.0), (0.0, 0.0))]
    settings = SimSettings(realizations=4000, window_half_length=2000.0,
                           seed=21)
    w, rows = settings.window_half_length, 4000
    group = montecarlo._level_interference(
        make_scenario(Aloha(0.0)), links,
        _draw_chunk([make_scenario(Aloha(p)) for p in ps], settings, 2, rows))
    assert group.levels == tuple(Aloha(p) for p in sorted(ps))
    for starts, lam in zip(group.starts, (roads.lambda_h, roads.lambda_v)):
        layers = np.diff(starts).reshape(len(ps), rows)
        assert (layers >= 0).all()
        assert (layers[0] == 0).all()
        below = 0.0
        for p, n in zip(sorted(ps), layers):
            m = 2.0 * w * lam * (p - below)
            below = p
            assert abs(n.mean() - m) <= 5.0 * math.sqrt(m / rows)
            assert abs(n.var(ddof=1) - m) <= 5.0 * math.sqrt(
                (m + 2.0 * m * m) / rows)
    assert (group.interference[Aloha(0.0), links[0].rx] == 0.0).all()

    lone = make_scenario(Aloha(0.2))
    chunk = _draw_chunk([lone, lone], settings, 5, rows)
    rng = _stream(21, 5)
    for road, starts in zip(("h", "v"), chunk.starts):
        np.testing.assert_array_equal(np.diff(starts), rng.poisson(
            2.0 * w * _effective_lambda(lone, road), rows))


def test_segment_sums_add_up_to_each_prefix(make_scenario, make_link):
    # Each road's nodes in segments (level, row), level-major: the pass
    # on the segment starts, summed over the levels up to k, is the
    # interference of the nodes of levels <= k, row by row, for every
    # receiver; level 0 alone has the bits of a pass over its rows.
    levels, rows = 3, 300
    rng = philox(12, 0)
    roads = []
    for mean, fading in ((4.0, Exponential()), (2.5, LogNormal(3.2))):
        sizes = rng.poisson(mean, (levels, rows))
        pos = rng.uniform(-5000.0, 5000.0, sizes.sum())
        roads.append((pos, sample_fading_array(fading, rng, (pos.size,)),
                      row_starts(sizes.ravel())))
    scen = make_scenario(Aloha(0.05), loss_v=loss("manhattan", 3.0))
    links = [make_link((0, 0), (0, 0)), make_link((0, 150), (110, 0)),
             make_link((80, 120), (-37.5, 0))]
    for link, row in zip(links, _interference(scen, roads, links, None)):
        cum = np.cumsum(row.reshape(levels, rows), axis=0)
        for k in range(levels):
            # Per road, the nodes of levels <= k, gathered row by row.
            prefix = []
            for pos, fad, starts in roads:
                segs = starts[:-1].reshape(levels, rows)[:k + 1]
                ends = starts[1:].reshape(levels, rows)[:k + 1]
                idx = np.concatenate([
                    np.arange(lo, hi) for r in range(rows)
                    for lo, hi in zip(segs[:, r], ends[:, r])])
                prefix.append((pos[idx], fad[idx],
                               row_starts((ends - segs).sum(axis=0))))
            expected = per_receiver_interference(scen, prefix, link.rx)
            if k == 0:
                assert (cum[0] == expected).all()
            np.testing.assert_allclose(cum[k], expected, rtol=1e-12, atol=0)


def test_aloha_failure_counts_are_pinned(make_scenario, make_link):
    # As for CSMA: these counts move only if the draws, the interference
    # gains or the SINR count change beyond rounding. Two chunks (2500 +
    # 2500 rows), receivers at, before and past the intersection, worker
    # counts 1 and 2; a rural LOS road pair, a street canyon with
    # log-normal shadowing, and an alpha = 3 V road.
    links = ([make_link((10.0 + 60.0 * i, 0.0), (0.0, 0.0)) for i in range(5)]
             + [make_link((0.0, 150.0), (0.0, 0.0)),
                make_link((0.0, 150.0), (200.0, 0.0)),
                make_link((250.0, 0.0), (110.0, 0.0)),
                make_link((-137.5, 0.0), (-37.5, 0.0)),
                make_link((0.0, -40.0), (60.0, 0.0))])
    shadowed = LogNormal(3.2)
    pinned = [
        (make_scenario(Aloha(0.05)),
         [412, 2079, 3143, 3800, 4255, 3390, 4244, 3211, 2655, 2070]),
        (make_scenario(Aloha(0.05), loss_useful=CANYON, loss_v=CANYON,
                       fading_useful=shadowed, fading_v=shadowed),
         [298, 1795, 2920, 3691, 4185, 3202, 4569, 2854, 2303, 2239]),
        (make_scenario(Aloha(0.05), loss_v=PathLossSpec(
            norm="euclidean", amplitude_a=3e-5, alpha=3.0)),
         [264, 1333, 2122, 2726, 3221, 2346, 3077, 2089, 1687, 1248])]
    for scen, fails in pinned:
        for workers in (1, 2):
            settings = SimSettings(realizations=5000, window_half_length=12000.0,
                                   seed=13, workers=workers)
            assert -(-5000 // _plan_rows(scen, settings)) == 2
            [stats] = montecarlo._merged_stats([(scen, links)], settings)
            assert [link[:2] for link in stats] == [(5000, f) for f in fails]


def test_csma_failure_counts_are_pinned(make_scenario, make_link):
    # The output is a pure function of scenario, links and settings, so
    # these failure counts move only if the draws, the Matern retention,
    # the kill discs or the SINR count change. Two chunks (200 + 200
    # rows), several transmitters on and off the roads, worker counts 1
    # and 2.
    links = ([make_link((10.0 + 50.0 * i, 0.0), (0.0, 0.0)) for i in range(6)]
             + [make_link((0.0, 150.0), (0.0, 0.0)),
                make_link((0.0, 150.0), (200.0, 0.0)),
                make_link((80.0, 120.0), (0.0, 0.0)),
                make_link((0.0, -40.0), (60.0, 0.0))])
    pinned = {500.0: [3, 69, 176, 275, 331, 374, 262, 366, 246, 91],
              2000.0: [0, 4, 13, 25, 43, 67, 19, 60, 15, 6]}
    for delta, fails in pinned.items():
        for workers in (1, 2):
            settings = SimSettings(realizations=400, window_half_length=12000.0,
                                   seed=11, workers=workers)
            [stats] = montecarlo._merged_stats(
                [(make_scenario(Csma(delta)), links)], settings)
            assert [link[:2] for link in stats] == [(400, f) for f in fails]


def test_batch_matches_one_sweep_per_job(make_scenario, make_link):
    # Aloha and CSMA jobs, one-chunk and two-chunk jobs, a p = 0 job that
    # draws no nodes and a job without links, all in one batch: each job
    # must get the failure counts of its own simulate_outage_sweep call.
    h_links = [make_link((100.0, 0.0), (0.0, 0.0)),
               make_link((350.0, 0.0), (100.0, 0.0))]
    links = h_links + [make_link((0.0, 150.0), (60.0, 0.0))]
    jobs = [(make_scenario(Aloha(0.05)), links),
            (make_scenario(Csma(300.0)), links),
            (make_scenario(Aloha(0.0)), h_links),
            (make_scenario(Aloha(0.02)), []),
            (make_scenario(Csma(150.0)), links[1:]),
            (make_scenario(Aloha(0.05)), links[:1])]
    base = SimSettings(realizations=1500, window_half_length=3000.0, seed=4)
    assert [-(-1500 // _plan_rows(scen, base)) for scen, _ in jobs] == [
        1, 2, 1, 1, 2, 1]
    expected = [simulate_outage_sweep(scen, job_links, base)
                for scen, job_links in jobs]
    assert expected[3] == []
    assert [est.p_out for est in expected[2]] != [0.0, 0.0]
    for workers in (1, 2, 3):
        settings = SimSettings(realizations=1500, window_half_length=3000.0,
                               seed=4, workers=workers)
        assert simulate_outages(jobs, settings) == expected


def test_delta_groups_match_one_sweep_per_job(make_scenario, make_link,
                                             roads, monkeypatch):
    # CSMA jobs equal but for delta share each chunk's draws; an Aloha job
    # between them, a CSMA job on denser V traffic and a CSMA job without
    # links do not join them. Every job must still get the failure counts
    # of its own simulate_outage_sweep call, at worker counts that run the
    # group as one task per chunk (1, 2) or split its deltas (3, 5), and
    # at 5 workers on 2 CPUs, whose pool of 2 threads does not split them.
    from crossrx import montecarlo

    links = [make_link((100.0, 0.0), (0.0, 0.0)),
             make_link((0.0, 150.0), (60.0, 0.0)),
             make_link((-80.0, 0.0), (120.0, 0.0))]
    denser_v = RoadConfig(lambda_h=roads.lambda_h, lambda_v=2 * roads.lambda_v)
    jobs = [(make_scenario(Csma(150.0)), links),
            (make_scenario(Csma(300.0)), links[:2]),
            (make_scenario(Aloha(0.05)), links),
            (make_scenario(Csma(2000.0)), links[1:]),
            (make_scenario(Csma(300.0), roads=denser_v), links),
            (make_scenario(Csma(500.0)), []),
            (make_scenario(Csma(8000.0)), links)]
    base = SimSettings(realizations=1500, window_half_length=3000.0, seed=4)
    assert [-(-1500 // _plan_rows(scen, base)) for scen, _ in jobs] == [
        2, 2, 1, 2, 3, 2, 2]
    expected = [simulate_outage_sweep(scen, job_links, base)
                for scen, job_links in jobs]
    # The deltas and the V density all move the estimates, so a job run
    # with another job's delta or draws would show.
    assert expected[0][:2] != expected[1] != expected[4][:2]
    assert expected[0][1:] != expected[3] and expected[0] != expected[6]

    draw_chunk = montecarlo._draw_chunk
    draws = []

    def counting(scenarios, settings, chunk_index, nrows):
        draws.append(chunk_index)
        return draw_chunk(scenarios, settings, chunk_index, nrows)

    monkeypatch.setattr(montecarlo, "_draw_chunk", counting)
    # Draws per (worker count, CPU count): the delta group's 2 chunks once
    # per slice, plus the Aloha job's 1 and the denser-V job's 3.
    for workers, cpus, n_draws in ((1, 8, 6), (2, 8, 6), (3, 8, 8),
                                   (5, 8, 10), (5, 2, 6)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        draws.clear()
        settings = SimSettings(realizations=1500, window_half_length=3000.0,
                               seed=4, workers=workers)
        assert simulate_outages(jobs, settings) == expected
        assert len(draws) == n_draws


def test_nested_deltas_match_one_sweep_per_delta(make_scenario, make_link):
    # Seven deltas of one one-chunk group, evaluated by one retention call
    # per task, against one simulate_outage_sweep per delta: at every
    # worker count the tasks hold other slices of the deltas, and in
    # reverse job order other deltas share a task, which must not change
    # any delta's retained nodes. Two transmitters, on each road.
    links = [make_link((100.0, 0.0), (0.0, 0.0)),
             make_link((100.0, 0.0), (-50.0, 0.0)),
             make_link((0.0, 150.0), (60.0, 0.0))]
    deltas = [300.0, 40.0, 1500.0, 150.0, 800.0, 75.0, 3000.0]
    jobs = [(make_scenario(Csma(delta)), links) for delta in deltas]
    base = SimSettings(realizations=800, window_half_length=3000.0, seed=9)
    assert all(_plan_rows(scen, base) >= 800 for scen, _ in jobs)
    expected = [simulate_outage_sweep(scen, links, base)
                for scen, _ in jobs]
    assert len({tuple(est.p_out for est in job) for job in expected}) == 7
    for workers in (1, 2, 3, 4):
        settings = SimSettings(realizations=800, window_half_length=3000.0,
                               seed=9, workers=workers)
        assert simulate_outages(jobs, settings) == expected
        assert simulate_outages(jobs[::-1], settings) == expected[::-1]


def test_access_groups_are_worker_and_order_invariant(
        make_scenario, make_link, roads, monkeypatch):
    # Aloha jobs equal but for p whose links share one set of receivers
    # form one group, drawn once per chunk at any worker count. Their
    # estimates depend on the group's p values only: not on the worker
    # count, the job order, or the jobs outside the group (a CSMA job,
    # an Aloha job with other receivers, one on denser V traffic).
    links = [make_link((100.0, 0.0), (0.0, 0.0)),
             make_link((0.0, 150.0), (60.0, 0.0)),
             make_link((-80.0, 0.0), (60.0, 0.0))]
    same_rx = [make_link((250.0, 0.0), (60.0, 0.0)),
               make_link((0.0, -40.0), (0.0, 0.0))]
    group = [(make_scenario(Aloha(p)), job_links) for p, job_links in (
        (0.05, links), (0.002, same_rx), (0.02, links),
        (0.05, [same_rx[0], links[0]]), (0.0, links))]
    denser_v = RoadConfig(lambda_h=roads.lambda_h, lambda_v=2 * roads.lambda_v)
    others = [(make_scenario(Csma(300.0)), links),
              (make_scenario(Aloha(0.02)), links[:1]),
              (make_scenario(Aloha(0.02), roads=denser_v), links)]
    base = SimSettings(realizations=5000, window_half_length=3000.0, seed=17)
    assert -(-5000 // _plan_rows(group[0][0], base)) == 2
    expected = simulate_outages(group, base)
    # Each p's own estimates, and the two p = 0.05 jobs share a level.
    assert len({est.p_out for job in expected for est in job}) == 12
    assert expected[0][0] == expected[3][1]

    draw_chunk = montecarlo._draw_chunk
    draws = []

    def counting(scenarios, settings, chunk_index, nrows):
        draws.append(len(scenarios))
        return draw_chunk(scenarios, settings, chunk_index, nrows)

    monkeypatch.setattr(montecarlo, "_draw_chunk", counting)
    mixed = others[:1] + group[3:] + others[1:] + group[:3]
    for workers in (1, 2, 3):
        settings = replace(base, workers=workers)
        draws.clear()
        assert simulate_outages(group, settings) == expected
        assert draws == [5, 5]
        assert simulate_outages(group[::-1], settings) == expected[::-1]
        assert simulate_outages(mixed, settings)[1:3] == expected[3:]
        assert simulate_outages(mixed, settings)[5:] == expected[:3]


def test_silent_member_reads_the_noise_only_outage(make_scenario, make_link):
    # A p = 0 member of a group keeps no node: each realization's p_r is
    # the noise-only outage, exactly as its lone job's, with the floored
    # error bar.
    links = [make_link((100.0, 0.0), (0.0, 0.0)),
             make_link((350.0, 0.0), (0.0, 0.0))]
    settings = SimSettings(realizations=600, window_half_length=3000.0,
                           seed=5, workers=2)
    jobs = [(make_scenario(Aloha(p)), links) for p in (0.1, 0.0, 0.03)]
    got = simulate_outages(jobs, settings)[1]
    assert got == simulate_outage_sweep(jobs[1][0], links, settings)
    for link, est in zip(links, got):
        gain = path_loss(jobs[1][0].loss_useful, link.tx, link.rx)
        noise_only = 1.0 - math.exp(-link.beta * link.noise_w
                                    / link.power_w / gain)
        assert est.p_out == pytest.approx(noise_only, rel=1e-14, abs=0)
        assert 0.0 < est.p_out and est.std_err == STDERR_FLOOR


def test_single_p_groups_and_other_receivers_draw_alone(make_scenario,
                                                         make_link):
    # Jobs at one p whose links share receivers, and Aloha jobs whose
    # receivers differ, each get exactly their own simulate_outage_sweep.
    links = [make_link((100.0, 0.0), (0.0, 0.0)),
             make_link((0.0, 150.0), (60.0, 0.0))]
    moved_tx = [make_link((0.0, -40.0), (60.0, 0.0)),
                make_link((-80.0, 0.0), (0.0, 0.0))]
    jobs = [(make_scenario(Aloha(0.05)), links),
            (make_scenario(Aloha(0.02)), links[:1]),
            (make_scenario(Aloha(0.05)), moved_tx),
            (make_scenario(Aloha(0.01)), moved_tx[:1])]
    base = SimSettings(realizations=5000, window_half_length=3000.0, seed=23)
    expected = [simulate_outage_sweep(scen, job_links, base)
                for scen, job_links in jobs]
    for workers in (1, 2):
        settings = replace(base, workers=workers)
        assert simulate_outages(jobs, settings) == expected


def test_shared_pass_failure_names_the_first_job(make_scenario, make_link,
                                                 monkeypatch):
    # A failure in a group's shared draw or interference pass is every
    # member's; the first of them in job order is named.
    interference = montecarlo._interference

    def failing(scenario, roads, links, delta):
        if delta is None:
            raise OverflowError("shared pass")
        return interference(scenario, roads, links, delta)

    monkeypatch.setattr(montecarlo, "_interference", failing)
    link = make_link((100.0, 0.0), (0.0, 0.0))
    jobs = [(make_scenario(Csma(300.0)), [link]),
            (make_scenario(Aloha(0.05)), [link]),
            (make_scenario(Aloha(0.02)), [link])]
    for workers in (1, 2, 3):
        settings = SimSettings(realizations=1500, window_half_length=3000.0,
                               seed=4, workers=workers)
        with pytest.raises(OverflowError, match="shared pass") as info:
            simulate_outages(jobs, settings)
        assert info.value.job == 1


def test_batch_failure_names_its_job(make_scenario, make_link, monkeypatch):
    from crossrx import montecarlo

    job_chunk = montecarlo._job_chunk

    def failing(scenario, links, chunk):
        if isinstance(scenario.mac, Csma) and chunk.index == 1:
            raise OverflowError(f"chunk {chunk.index}")
        return job_chunk(scenario, links, chunk)

    monkeypatch.setattr(montecarlo, "_job_chunk", failing)
    link = make_link((100.0, 0.0), (0.0, 0.0))
    jobs = [(make_scenario(Aloha(0.05)), [link]),
            (make_scenario(Csma(300.0)), [link]),
            (make_scenario(Csma(150.0)), [link])]
    for workers in (1, 2, 3):
        settings = SimSettings(realizations=1500, window_half_length=3000.0,
                               seed=4, workers=workers)
        with pytest.raises(OverflowError, match="chunk 1") as info:
            simulate_outages(jobs, settings)
        assert info.value.job == 1


def test_planning_failure_names_its_job(make_scenario, make_link):
    # With alpha = 1 the truncation tail bound divides by alpha - 1 while
    # the batch is planned, before any chunk is drawn.
    flat = PathLossSpec(EUCLIDEAN, 3e-5, 1.0)
    link = make_link((100.0, 0.0), (0.0, 0.0))
    jobs = [(make_scenario(Aloha(0.05)), [link]),
            (make_scenario(Aloha(0.05), loss_h=flat), [link])]
    settings = SimSettings(realizations=100, window_half_length=3000.0)
    with pytest.raises(ZeroDivisionError) as info:
        simulate_outages(jobs, settings)
    assert info.value.job == 1


def test_grouped_failure_names_the_first_job(make_scenario, make_link,
                                             monkeypatch):
    # Jobs 1 and 2 share every chunk's draws. Job 2 fails in chunk 0 and
    # job 1 in chunk 1: the first failing (job, chunk) is job 1's, even
    # though job 2's failure happens in an earlier chunk.
    from crossrx import montecarlo

    job_chunk = montecarlo._job_chunk

    def failing(scenario, links, chunk):
        if (scenario.mac, chunk.index) in ((Csma(150.0), 0), (Csma(300.0), 1)):
            raise OverflowError(
                f"delta {scenario.mac.delta} chunk {chunk.index}")
        return job_chunk(scenario, links, chunk)

    monkeypatch.setattr(montecarlo, "_job_chunk", failing)
    link = make_link((100.0, 0.0), (0.0, 0.0))
    jobs = [(make_scenario(Aloha(0.05)), [link]),
            (make_scenario(Csma(300.0)), [link]),
            (make_scenario(Csma(150.0)), [link])]
    for workers in (1, 2, 3):
        settings = SimSettings(realizations=1500, window_half_length=3000.0,
                               seed=4, workers=workers)
        with pytest.raises(OverflowError, match="delta 300.0 chunk 1") as info:
            simulate_outages(jobs, settings)
        assert info.value.job == 1


@pytest.mark.parametrize("rows", [1, 500, 833, montecarlo._MAX_ROWS])
def test_chunk_sizes_are_near_equal(rows):
    # n realizations are cut into ceil(n / rows) chunks of at most rows
    # rows, whose sizes add up to n and differ by at most one.
    for n in (1, rows, rows + 1, 5000, 20000):
        sizes = _chunk_sizes(n, rows)
        assert len(sizes) == -(-n // rows)
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1
        assert max(sizes) <= rows
    assert _chunk_sizes(5000, 4096) == [2500, 2500]
    assert _chunk_sizes(20000, 4096) == [4000] * 5
    assert _chunk_sizes(238, 119) == [119, 119]


def test_workers_do_not_change_results(make_scenario, make_link, monkeypatch):
    # A job of three chunks, one a row longer than the others: each chunk
    # is drawn with its _chunk_sizes rows, and the merged statistics keep
    # their bits at worker counts 1, 2 and 3.
    scen = make_scenario(Aloha(0.1))
    links = [make_link((100, 0), (0, 0)), make_link((0, 150), (60, 0))]
    base = SimSettings(realizations=8194, seed=7)
    assert _chunk_sizes(8194, _plan_rows(scen, base)) == [2731, 2731, 2732]
    draw_chunk = montecarlo._draw_chunk
    drawn = []

    def recording(scenarios, settings, chunk_index, nrows):
        drawn.append((chunk_index, nrows))
        return draw_chunk(scenarios, settings, chunk_index, nrows)

    monkeypatch.setattr(montecarlo, "_draw_chunk", recording)
    runs = []
    for workers in (1, 2, 3):
        drawn.clear()
        runs.append(montecarlo._merged_stats(
            [(scen, links)], replace(base, workers=workers)))
        assert sorted(drawn) == [(0, 2731), (1, 2731), (2, 2732)]
    assert runs[0] == runs[1] == runs[2]
    assert all(n == 8194 for n, *_ in runs[0][0])


def test_pool_is_capped_at_the_cpu_count(make_scenario, make_link,
                                         monkeypatch):
    # Five one-chunk jobs, each with its own receiver, are five groups and
    # five tasks. A huge workers count must start at most one thread per
    # CPU and still give every job its own estimates. The fake pool
    # records its size and runs the tasks in the calling thread, so no
    # thread is started.
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    jobs = [(make_scenario(Aloha(p)), [make_link((100.0, 0.0), (x, 0.0))])
            for p, x in ((0.01, 0.0), (0.02, 10.0), (0.03, 20.0),
                         (0.04, 30.0), (0.05, 40.0))]
    base = SimSettings(realizations=300, window_half_length=3000.0, seed=4)
    assert all(_plan_rows(scen, base) >= 300 for scen, _ in jobs)
    expected = [simulate_outage_sweep(scen, links, base)
                for scen, links in jobs]
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", SerialPool)
    huge = replace(base, workers=10 ** 6)
    for cpus, pools in ((3, [3]), (8, [5]), (1, []), (None, [])):
        sizes.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert simulate_outages(jobs, huge) == expected
        assert sizes == pools


def test_seed_moves_the_estimate(make_scenario, make_link):
    scen = make_scenario(Aloha(0.05))
    link = make_link((300, 0), (0, 0))
    outs = {simulate_outage(scen, link,
                            SimSettings(realizations=20000, seed=s,
                                        window_half_length=5000.0)).p_out
            for s in (0, 1, 2)}
    assert len(outs) > 1


def test_seeds_above_2_63_draw_their_own_streams(make_scenario, make_link):
    # A seed of 2^63 or more must not be rounded to a neighbour's stream.
    scen = make_scenario(Aloha(0.05))
    link = make_link((300, 0), (0, 0))
    outs = [simulate_outage(scen, link,
                            SimSettings(realizations=20000, seed=s,
                                        window_half_length=5000.0)).p_out
            for s in (1 << 63, (1 << 63) + 1)]
    assert outs[0] != outs[1]


def test_streams_differ_across_seed_and_chunk():
    # Chunk 1 of seed 5 and chunk 0 of seed 2^32 + 5 must not share a
    # stream, as they would if both were keyed by the 32-bit words of
    # [seed, chunk], which are [5, 1] for both once trailing zeros drop.
    assert _stream(5, 1).random() != _stream((1 << 32) + 5, 0).random()
    assert _stream(5, 1).random() == _stream(5, 1).random()


def test_truncation_warnings(make_scenario, make_link):
    scen = make_scenario(Aloha(1.0))
    link = make_link((100, 0), (0, 0))
    # Every public entry point attributes its warnings to its caller.
    entries = (
        lambda settings: simulate_outage(scen, link, settings),
        lambda settings: simulate_outage_sweep(scen, [link], settings),
        lambda settings: simulate_outages([(scen, [link])], settings))
    for entry in entries:
        with pytest.warns(UserWarning, match="mean spacings") as record:
            entry(SimSettings(realizations=5, window_half_length=100.0))
        assert record[0].filename == __file__
        with pytest.warns(UserWarning, match="truncation bias") as record:
            entry(SimSettings(realizations=5, window_half_length=2000.0))
        assert record[0].filename == __file__
