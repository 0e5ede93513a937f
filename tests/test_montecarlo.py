import math

import numpy as np
import pytest

from crossrx import (Aloha, Csma, LogNormal, NoMac, OutageEstimate, Position,
                     SimSettings, access_probability, analytic_view,
                     csma_intensity, reception_probability, simulate_outage,
                     simulate_outage_sweep, simulate_throughput,
                     thin_csma_matern2)


# modest windows keep these tests quick; the truncation advisory is
# exercised explicitly in test_truncation_warnings
pytestmark = pytest.mark.filterwarnings(
    "ignore:expected interference truncated")


def philox(seed, counter):
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
        got_h, got_v = thin_csma_matern2(ph, pv, tx, delta, philox(99, t))
        # identical stream, identical draw order: marks H first, then V
        rng_ref = philox(99, t)
        marks_h = rng_ref.random((1, ph.size))[0]
        marks_v = rng_ref.random((1, pv.size))[0]
        exp_h, exp_v = brute_matern(ph, pv, marks_h, marks_v, tx, delta)
        np.testing.assert_array_equal(got_h, exp_h)
        np.testing.assert_array_equal(got_v, exp_v)


def test_thin_csma_validates_delta():
    with pytest.raises(ValueError):
        thin_csma_matern2(np.array([1.0]), np.array([]), Position(0, 0),
                          0.0, philox(1, 0))


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
        kept_h, _ = thin_csma_matern2(ph, pv, tx, delta, philox(17, t))
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


@pytest.mark.parametrize("sigma_db, k0", [(1.0, 19), (0.7, 39)])
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
    est = simulate_outage(make_scenario(Aloha(0.05)),
                          make_link((200, 0), (0, 0)),
                          SimSettings(realizations=5000, seed=9,
                                      window_half_length=5000.0))
    assert isinstance(est, OutageEstimate)
    assert est.realizations_used == 5000
    assert np.isclose(est.std_err,
                      math.sqrt(est.p_out * (1 - est.p_out) / 5000),
                      rtol=1e-12)


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


def test_workers_do_not_change_results(make_scenario, make_link):
    scen = make_scenario(Aloha(0.1))
    link = make_link((100, 0), (0, 0))
    base = SimSettings(realizations=6000, seed=7)
    split = SimSettings(realizations=6000, seed=7, workers=3)
    assert (simulate_outage(scen, link, base).p_out
            == simulate_outage(scen, link, split).p_out)


def test_seed_moves_the_estimate(make_scenario, make_link):
    scen = make_scenario(Aloha(0.05))
    link = make_link((300, 0), (0, 0))
    outs = {simulate_outage(scen, link,
                            SimSettings(realizations=20000, seed=s,
                                        window_half_length=5000.0)).p_out
            for s in (0, 1, 2)}
    assert len(outs) > 1


def test_truncation_warnings(make_scenario, make_link):
    scen = make_scenario(Aloha(1.0))
    link = make_link((100, 0), (0, 0))
    with pytest.warns(UserWarning, match="mean spacings"):
        simulate_outage(scen, link,
                        SimSettings(realizations=5, window_half_length=100.0))
    with pytest.warns(UserWarning, match="truncation bias"):
        simulate_outage(scen, link,
                        SimSettings(realizations=5,
                                    window_half_length=2000.0))


def test_simulate_throughput_identity(make_scenario, make_link):
    link = make_link((0, 0), (100, 0))
    settings = SimSettings(realizations=2000, seed=3,
                           window_half_length=5000.0)
    scen = make_scenario(Aloha(0.02))
    est = simulate_outage(scen, link, settings)
    expected = 0.02 * (1 - est.p_out) * math.log2(1 + link.beta)
    assert np.isclose(simulate_throughput(scen, link, settings), expected,
                      rtol=1e-14)

    scen = make_scenario(Csma(250.0))
    settings = SimSettings(realizations=300, seed=3,
                           window_half_length=2500.0)
    est = simulate_outage(scen, link, settings)
    p_a = access_probability(link.tx, 250.0, scen.roads)
    expected = p_a * (1 - est.p_out) * math.log2(1 + link.beta)
    assert np.isclose(simulate_throughput(scen, link, settings), expected,
                      rtol=1e-14)
