import math

import numpy as np
import pytest

from crossrx import (Aloha, Csma, Erlang, Exponential, LogNormal, NoMac,
                     OutageEstimate, PathLossSpec, Position, RoadConfig,
                     SimSettings, access_probability, analytic_view,
                     csma_intensity, path_loss, reception_probability,
                     sample_fading_array, simulate_outage,
                     simulate_outage_sweep, simulate_outages,
                     simulate_throughput)
from crossrx import montecarlo
from crossrx.model import EUCLIDEAN
from crossrx.montecarlo import (_aloha_interference, _Chunk, _clear_of_tx,
                                _pack, _plan_rows, _retain, _weighted_gains)

from conftest import CANYON


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
    for window in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            SimSettings(realizations=10, window_half_length=window)


def as_mask(idx, shape):
    """Retained row-major indices as a mask over the padded layout."""
    mask = np.zeros(shape, dtype=bool)
    mask.ravel()[idx] = True
    return mask


def thin_csma(ph, pv, tx, delta, rng):
    """Matern II retention of one realization, conditioned on tx active,
    through the engine's kernel: marks are drawn from ``rng`` (H road,
    then V, shape (1, n)), and tx kills everything within delta of it."""
    ph, pv = ph.reshape(1, -1), pv.reshape(1, -1)
    marks_h = rng.random(ph.shape)
    marks_v = rng.random(pv.shape)
    extent = max(float(np.abs(ph).max()) if ph.size else 0.0,
                 float(np.abs(pv).max()) if pv.size else 0.0,
                 abs(tx.x), abs(tx.y), delta)
    kept_h, kept_v = _retain(_pack(ph, np.ones(ph.shape, bool), marks_h),
                             _pack(pv, np.ones(pv.shape, bool), marks_v),
                             delta, bound=extent + 2.0)
    keep_h = as_mask(kept_h, ph.shape) & _clear_of_tx("h", ph, tx, delta)
    keep_v = as_mask(kept_v, pv.shape) & _clear_of_tx("v", pv, tx, delta)
    return ph[0][keep_h[0]], pv[0][keep_v[0]]


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
        marks_h = rng_ref.random((1, ph.size))[0]
        marks_v = rng_ref.random((1, pv.size))[0]
        exp_h, exp_v = brute_matern(ph, pv, marks_h, marks_v, tx, delta)
        np.testing.assert_array_equal(got_h, exp_h)
        np.testing.assert_array_equal(got_v, exp_v)


@pytest.mark.parametrize("delta", [30.0, 120.0])
def test_batched_retention_matches_brute_force(delta):
    # One padded chunk as the engine lays it out: each row draws its own
    # counts, so every row but the longest ends in invalid cells, and the
    # window is only a few delta wide, so many nodes on both roads see the
    # other road. Invalid cells get mark 0, which would kill their
    # neighbours if the kernel looked at them. The same H road is then
    # run again against a V road with no node in any row.
    lam, window, nrows = 0.05, 300.0, 40
    rng = philox(31, int(delta))
    counts_h = rng.poisson(2.0 * window * lam, nrows)
    counts_v = rng.poisson(2.0 * window * lam, nrows)
    counts_v[3] = 0
    pos_h = rng.uniform(-window, window, (nrows, counts_h.max()))
    pos_v = rng.uniform(-window, window, (nrows, counts_v.max()))
    valid_h = np.arange(pos_h.shape[1]) < counts_h[:, None]
    valid_v = np.arange(pos_v.shape[1]) < counts_v[:, None]
    marks_h = np.where(valid_h, rng.random(pos_h.shape), 0.0)
    marks_v = np.where(valid_v, rng.random(pos_v.shape), 0.0)
    assert (~valid_h).any() and (~valid_v).any()
    assert (np.abs(pos_h[valid_h]) <= delta).sum() > nrows
    assert (np.abs(pos_v[valid_v]) <= delta).sum() > nrows

    no_v = (np.zeros_like(counts_v), pos_v[:, :0], valid_v[:, :0],
            marks_v[:, :0])
    for counts_v, pos_v, valid_v, marks_v in (
            (counts_v, pos_v, valid_v, marks_v), no_v):
        kept_h, kept_v = _retain(_pack(pos_h, valid_h, marks_h),
                                 _pack(pos_v, valid_v, marks_v), delta,
                                 bound=window + delta + 2.0)
        assert (np.diff(kept_h) > 0).all() and (np.diff(kept_v) > 0).all()
        keep_h = as_mask(kept_h, pos_h.shape)
        keep_v = as_mask(kept_v, pos_v.shape)
        assert not (keep_h & ~valid_h).any() and not (keep_v & ~valid_v).any()
        for tx in (Position(0.0, 0.0), Position(40.0, 0.0),
                   Position(0.0, -55.0), Position(70.0, 90.0)):
            got_h = keep_h & _clear_of_tx("h", pos_h, tx, delta)
            got_v = keep_v & _clear_of_tx("v", pos_v, tx, delta)
            for r in range(nrows):
                ph, pv = pos_h[r, :counts_h[r]], pos_v[r, :counts_v[r]]
                exp_h, exp_v = brute_matern(
                    ph, pv, marks_h[r, :counts_h[r]],
                    marks_v[r, :counts_v[r]], tx, delta)
                np.testing.assert_array_equal(pos_h[r][got_h[r]], exp_h)
                np.testing.assert_array_equal(pos_v[r][got_v[r]], exp_v)


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


def padded_road(mean, rows, fading, rng, window=5000.0):
    """One road's draws in the padded (row x max count) layout of a chunk:
    positions, the valid-cell mask and fading, padded cells included."""
    counts = rng.poisson(mean, rows)
    width = int(counts.max())
    pos = rng.uniform(-window, window, (rows, width))
    valid = np.arange(width) < counts[:, None]
    return pos, valid, sample_fading_array(fading, rng, pos.shape)


def per_receiver_interference(scen, chunk, rx):
    """Reference: each road's gains at rx over the whole padded arrays,
    from the squared distance, padded cells masked to 0.0, summed per
    row, H then V."""
    total = np.zeros(chunk.nrows)
    for road, pos, valid, fad, loss in (
            ("h", chunk.pos_h, chunk.valid_h, chunk.fad_h, scen.loss_h),
            ("v", chunk.pos_v, chunk.valid_v, chunk.fad_v, scen.loss_v)):
        if not pos.shape[1]:
            continue
        if road == "h":
            d = pos - rx.x
            r_sq = d * d
        elif loss.norm == EUCLIDEAN:
            r_sq = pos * pos + rx.x * rx.x
        else:
            d = abs(rx.x) + np.abs(pos)
            r_sq = d * d
        gains = fad * (loss.amplitude_a * r_sq ** (-loss.alpha / 2.0))
        total += np.where(valid, gains, 0.0).sum(axis=1)
    return total


def loss(norm, alpha):
    return PathLossSpec(norm=norm, amplitude_a=3e-5, alpha=alpha)


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
])
@pytest.mark.parametrize("block_cells", [None, 7])
def test_aloha_pass_matches_per_receiver_formula(
        make_scenario, monkeypatch, rows, mean_h, mean_v, loss_h, loss_v,
        fading, block_cells):
    # The blocked pass over all receivers must give every receiver's
    # per-realization totals bit for bit, whatever the block size.
    if block_cells is not None:
        monkeypatch.setattr(montecarlo, "_BLOCK_CELLS", block_cells)
    rng = philox(5, rows)
    pos_h, valid_h, fad_h = padded_road(mean_h, rows, fading[0], rng)
    pos_v, valid_v, fad_v = padded_road(mean_v, rows, fading[1], rng)
    assert (pos_h.shape[1] == 0) == (mean_h == 0.0)
    assert (pos_v.shape[1] == 0) == (mean_v == 0.0)
    chunk = _Chunk(0, rows, 5000.0, pos_h, pos_v, valid_h, valid_v,
                   fad_h, fad_v, np.ones(rows), None)
    scen = make_scenario(Aloha(0.05), loss_h=loss_h, loss_v=loss_v)
    receivers = [Position(0.0, 0.0), Position(110.0, 0.0),
                 Position(0.0, 0.0), Position(-37.5, 0.0),
                 Position(2500.0, 0.0), Position(110.0, 0.0)]
    totals = _aloha_interference(scen, chunk, receivers)
    assert set(totals) == set(receivers)
    for rx in receivers:
        expected = per_receiver_interference(scen, chunk, rx)
        assert (expected > 0.0).all()
        assert (totals[rx] == expected).all(), rx


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
        flat = _weighted_gains(road, pos.ravel(), fad.ravel(), loss, rx)
        np.testing.assert_allclose(flat, expected.ravel(), rtol=2e-15, atol=0)
        buf = np.full(pos.size + 5, np.nan)
        out = buf[:pos.size].reshape(pos.shape)
        assert _weighted_gains(road, pos, fad, loss, rx, out) is out
        np.testing.assert_allclose(out, expected, rtol=2e-15, atol=0)
        assert np.isnan(buf[pos.size:]).all()
        for z, f, g in zip(pos[0, :8], fad[0, :8], out[0, :8]):
            node = Position(z, 0.0) if road == "h" else Position(0.0, z)
            assert g == pytest.approx(path_loss(loss, node, rx) * f,
                                      rel=2e-15, abs=0)


def test_aloha_failure_counts_are_pinned(make_scenario, make_link):
    # As for CSMA: these counts move only if the draws, the interference
    # gains or the SINR count change beyond rounding. Two chunks (4096 +
    # 904 rows), receivers at, before and past the intersection, worker
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
         [374, 2112, 3189, 3852, 4274, 3443, 4225, 3263, 2693, 2121]),
        (make_scenario(Aloha(0.05), loss_useful=CANYON, loss_v=CANYON,
                       fading_useful=shadowed, fading_v=shadowed),
         [262, 1735, 2886, 3701, 4203, 3210, 4569, 2797, 2254, 2193]),
        (make_scenario(Aloha(0.05), loss_v=PathLossSpec(
            norm="euclidean", amplitude_a=3e-5, alpha=3.0)),
         [238, 1333, 2149, 2762, 3268, 2377, 3120, 2124, 1718, 1237])]
    for scen, fails in pinned:
        for workers in (1, 2):
            settings = SimSettings(realizations=5000, window_half_length=12000.0,
                                   seed=13, workers=workers)
            assert -(-5000 // _plan_rows(scen, settings)) == 2
            sweep = simulate_outage_sweep(scen, links, settings)
            assert [round(est.p_out * 5000) for est in sweep] == fails


def test_csma_failure_counts_are_pinned(make_scenario, make_link):
    # The output is a pure function of scenario, links and settings, so
    # these failure counts move only if the draws, the Matern retention,
    # the kill discs or the SINR count change. Two chunks (318 + 82
    # rows), several transmitters on and off the roads, worker counts 1
    # and 2.
    links = ([make_link((10.0 + 50.0 * i, 0.0), (0.0, 0.0)) for i in range(6)]
             + [make_link((0.0, 150.0), (0.0, 0.0)),
                make_link((0.0, 150.0), (200.0, 0.0)),
                make_link((80.0, 120.0), (0.0, 0.0)),
                make_link((0.0, -40.0), (60.0, 0.0))])
    pinned = {500.0: [3, 57, 178, 275, 335, 367, 252, 364, 245, 90],
              2000.0: [1, 5, 16, 24, 48, 77, 24, 67, 23, 7]}
    for delta, fails in pinned.items():
        for workers in (1, 2):
            settings = SimSettings(realizations=400, window_half_length=12000.0,
                                   seed=11, workers=workers)
            sweep = simulate_outage_sweep(make_scenario(Csma(delta)), links,
                                          settings)
            assert [round(est.p_out * 400) for est in sweep] == fails


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
    # group as one task per chunk (1, 2) or split its deltas (3, 5).
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

    def counting(scenario, settings, chunk_index, nrows):
        draws.append(chunk_index)
        return draw_chunk(scenario, settings, chunk_index, nrows)

    monkeypatch.setattr(montecarlo, "_draw_chunk", counting)
    # Draws per worker count: the delta group's 2 chunks once per slice,
    # plus the Aloha job's 1 and the denser-V job's 3.
    for workers, n_draws in ((1, 6), (2, 6), (3, 8), (5, 10)):
        draws.clear()
        settings = SimSettings(realizations=1500, window_half_length=3000.0,
                               seed=4, workers=workers)
        assert simulate_outages(jobs, settings) == expected
        assert len(draws) == n_draws


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
    # Every public entry point attributes its warnings to its caller.
    entries = (
        lambda settings: simulate_outage(scen, link, settings),
        lambda settings: simulate_throughput(scen, link, settings),
        lambda settings: simulate_outage_sweep(scen, [link], settings),
        lambda settings: simulate_outages([(scen, [link])], settings))
    for entry in entries:
        with pytest.warns(UserWarning, match="mean spacings") as record:
            entry(SimSettings(realizations=5, window_half_length=100.0))
        assert record[0].filename == __file__
        with pytest.warns(UserWarning, match="truncation bias") as record:
            entry(SimSettings(realizations=5, window_half_length=2000.0))
        assert record[0].filename == __file__


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
