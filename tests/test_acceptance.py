"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -s`` to see them all).
The Monte Carlo seeds are frozen; the heavy grids take a few minutes.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from crossrx import (Aloha, Csma, Erlang, LogNormal, Position, SimSettings,
                     access_probability, erlang_fit, lt_interference_generic,
                     reception_probability, simulate_outage_sweep, throughput)
from crossrx.cli import preset_config, run_config_text
from crossrx.numerics import derivative_n, gamma_fn, hyp2f1_regularized

from conftest import BETA, CANYON, NOISE_W, closed_form
from oracles import lt_h_sqrt_derivative

pytestmark = pytest.mark.filterwarnings(
    "ignore:expected interference truncated")

RATE = math.log2(1.0 + BETA)
DISTS = [10.0 + 30.0 * i for i in range(24)]  # 10 .. 700


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_rural_grid_tracks_simulation(make_scenario, make_link):
    start = time.perf_counter()
    settings = SimSettings(realizations=100_000, window_half_length=4e5,
                           seed=1, workers=4)
    worst_z = 0.0
    misses = 0
    points = 0
    for p in (0.0, 0.005, 0.1):
        scen = make_scenario(Aloha(p))
        links = [make_link((d + u, 0.0), (d, 0.0))
                 for d in (0.0, 100.0, 500.0) for u in DISTS]
        for link, est in zip(links,
                             simulate_outage_sweep(scen, links, settings)):
            points += 1
            delta = abs((1.0 - reception_probability(scen, link))
                        - est.p_out)
            z = 0.0 if delta == 0.0 else (delta / est.std_err
                                          if est.std_err > 0 else math.inf)
            worst_z = max(worst_z, z)
            misses += delta > 3.0 * est.std_err
    elapsed = time.perf_counter() - start
    _report(1, misses == 0 and elapsed < 120.0,
            f"{points} points, worst |analytic-mc| = {worst_z:.2f} std-err "
            f"(limit 3), {elapsed:.1f} s (limit 120)")


def test_criterion_02_noise_limited_range(make_scenario, make_link):
    target = math.sqrt(math.log(1.0 / 0.9) * 0.1 * 3e-5 / (NOISE_W * BETA))
    scen = make_scenario(Aloha(0.0))

    def outage(u):
        return 1.0 - reception_probability(scen, make_link((u, 0), (0, 0)))

    root = brentq(lambda u: outage(u) - 0.1, 10.0, 2000.0, xtol=1e-6)
    agree = np.isclose(root, target, rtol=1e-7)
    within = abs(target / 600.0 - 1.0) <= 0.06
    _report(2, agree and within,
            f"10%-outage separation {target:.1f} m, "
            f"{abs(target / 600.0 - 1.0) * 100:.1f}% from 600 m (limit 6%)")


def test_criterion_03_interference_limited_range(make_scenario, make_link):
    scen = make_scenario(Aloha(0.005))

    def outage(u):
        return 1.0 - reception_probability(scen, make_link((u, 0), (0, 0)))

    root = brentq(lambda u: outage(u) - 0.1, 50.0, 400.0, xtol=1e-6)
    _report(3, 120.0 <= root <= 145.0,
            f"10%-outage separation {root:.1f} m (band [120, 145])")


def test_criterion_04_closed_forms_match_quadrature(make_scenario, make_link):
    start = time.perf_counter()
    worst = 0.0
    for p in (0.002, 0.01, 0.1):
        rural = make_scenario(Aloha(p))
        urban = make_scenario(Aloha(p), loss_v=CANYON,
                              fading_v=Erlang(2, 0.66))
        for s in (1e8, 1e9, 1e10):
            for d in (10.0, 100.0, 500.0):
                link = make_link((d + 100.0, 0.0), (d, 0.0))
                for road, scen in (("h", rural), ("v", rural),
                                   ("v", urban)):
                    closed = closed_form(road, scen, link)(s)
                    quad = lt_interference_generic(road, scen, link, s)
                    worst = max(worst, abs(closed - quad) / abs(quad))
    elapsed = time.perf_counter() - start
    _report(4, worst <= 1e-6 and elapsed < 10.0,
            f"3 x 27 points, worst rel diff {worst:.2e} (limit 1e-6), "
            f"{elapsed:.1f} s (limit 10)")


def test_criterion_05_shadowing_surrogate(make_scenario, make_link):
    fit = erlang_fit(3.2)
    links = [make_link((0.0, ty), (d, 0.0))
             for ty in (50.0, 150.0)
             for d in [10.0 + 25.0 * i for i in range(13)]]
    settings = SimSettings(realizations=100_000, window_half_length=2e5,
                           seed=20260817, workers=4)
    worst = 0.0
    for p in (0.002, 0.02):
        mc_scen = make_scenario(Aloha(p), loss_useful=CANYON, loss_v=CANYON,
                                fading_useful=LogNormal(3.2),
                                fading_v=LogNormal(3.2))
        ana_scen = make_scenario(Aloha(p), loss_useful=CANYON, loss_v=CANYON,
                                 fading_useful=fit, fading_v=fit)
        for link, est in zip(links,
                             simulate_outage_sweep(mc_scen, links, settings)):
            ana = 1.0 - reception_probability(ana_scen, link)
            worst = max(worst, abs(ana - est.p_out))
    _report(5, fit.k == 2 and 0.60 <= fit.theta <= 0.72 and worst <= 0.015,
            f"fit k={fit.k}, theta={fit.theta:.3f} (band [0.60, 0.72]); "
            f"52 points, worst |analytic-mc| = {worst:.4f} (limit 0.015)")


def test_criterion_06_hard_core_approximation(make_scenario, make_link):
    links = [make_link((0.0, ty), (d, 0.0))
             for ty in (0.0, 150.0)
             for d in [10.0 + 50.0 * i for i in range(13)]]
    settings = SimSettings(realizations=50_000, window_half_length=4e4,
                           seed=20260817, workers=4)
    worst = 0.0
    for delta in (500.0, 10_000.0):
        scen = make_scenario(Csma(delta))
        for link, est in zip(links,
                             simulate_outage_sweep(scen, links, settings)):
            ana = 1.0 - reception_probability(scen, link)
            worst = max(worst, abs(ana - est.p_out))

    spot_link = make_link((0.0, 0.0), (100.0, 0.0))
    spot_csma = 1.0 - reception_probability(make_scenario(Csma(10_000.0)),
                                            spot_link)
    spot_aloha = 1.0 - reception_probability(make_scenario(Aloha(0.005)),
                                             spot_link)
    _report(6, (worst <= 0.02 and 0.002 <= spot_csma <= 0.005
                and 0.07 <= spot_aloha <= 0.09),
            f"52 points, worst |analytic-mc| = {worst:.4f} (limit 0.02); "
            f"spot outage csma {spot_csma:.4f} (band [0.002, 0.005]) vs "
            f"aloha {spot_aloha:.4f} (band [0.07, 0.09])")


def test_criterion_07_constrained_throughput(make_scenario, make_link, roads):
    # CSMA: outage falls as the sensing radius grows, so the 10% outage
    # bound pins the feasible region to delta >= delta0; throughput is
    # decreasing there and the optimum sits on the boundary.
    link_c = make_link((0.0, 0.0), (-100.0, 0.0))

    def csma_outage(delta):
        return 1.0 - reception_probability(make_scenario(Csma(delta)), link_c)

    def csma_tput(delta):
        return throughput(make_scenario(Csma(delta)), link_c)

    delta0 = brentq(lambda d: csma_outage(d) - 0.1, 100.0, 5000.0, xtol=1e-6)
    boundary = all(csma_tput(delta0) >= csma_tput(delta0 * f)
                   for f in (1.3, 1.8, 2.5, 4.0, 7.0))
    p_a = access_probability(Position(0.0, 0.0), delta0, roads)
    t_csma = csma_tput(delta0)

    link_a = make_link((100.0, 0.0), (0.0, 0.0))

    def aloha_outage(p):
        return 1.0 - reception_probability(make_scenario(Aloha(p)), link_a)

    p0 = brentq(lambda p: aloha_outage(p) - 0.1, 1e-4, 0.05, xtol=1e-12)
    t_aloha = throughput(make_scenario(Aloha(p0)), link_a)
    reception = reception_probability(make_scenario(Aloha(p0)), link_a)
    consistent = abs(t_aloha - p0 * reception * RATE) <= 1e-12 * t_aloha
    rising = csma_tput(delta0) > 0 and aloha_outage(p0 * 0.9) < 0.1

    _report(7, (boundary and 0.018 <= p_a <= 0.028
                and 0.053 <= t_csma <= 0.065 and 0.004 <= p0 <= 0.008
                and consistent and rising),
            f"csma p_A = {p_a:.4f} (band [0.018, 0.028]), "
            f"T = {t_csma:.4f} (band [0.053, 0.065]); "
            f"aloha p_A = {p0:.4f} (band [0.004, 0.008]), "
            f"T = {t_aloha:.4f}, identity residual <= 1e-12")


def test_criterion_08_derivative_machinery():
    worst = 0.0
    for kappa in (8.6e-7, 3.44e-6, 1.72e-5):
        for zeta in (1e6, 1e8):
            for n in (1, 2, 3):
                exact = lt_h_sqrt_derivative(kappa, zeta, n)
                fd = derivative_n(
                    lambda z: math.exp(-kappa * math.sqrt(z)), zeta, n)
                worst = max(worst, abs(fd - exact) / abs(exact))

    ident = 0.0
    for a, b, c in ((1.0, 1.0, 2.0), (2.0, 0.5, 1.5), (0.5, 1.25, 3.25)):
        ident = max(ident, abs(hyp2f1_regularized(a, b, c, 0.0)
                               - 1.0 / gamma_fn(c)))
    ident = max(ident, abs(hyp2f1_regularized(1.0, 1.0, 2.0, -1.0)
                           - math.log(2.0)))
    _report(8, worst <= 1e-6 and ident <= 1e-10,
            f"18 derivative points, worst rel diff {worst:.2e} (limit 1e-6); "
            f"series identities off by {ident:.2e} (limit 1e-10)")


def test_criterion_09_degenerate_limits(make_scenario, make_link):
    worst = 0.0
    corner = make_link((100.0, 0.0), (0.0, 0.0))  # d = 0
    rural = make_scenario(Aloha(0.01))
    urban_unit = make_scenario(Aloha(0.01), loss_v=CANYON,
                               fading_v=Erlang(1, 1.0))
    for s in (1e7, 1e9, 1e11):
        ref = closed_form("h", rural, corner)(s)
        worst = max(worst,
                    abs(closed_form("v", rural, corner)(s) - ref) / ref)
        worst = max(worst,
                    abs(closed_form("v", urban_unit, corner)(s) - ref) / ref)

    link = make_link((0.0, 0.0), (100.0, 0.0))
    tiny = reception_probability(make_scenario(Csma(1e-9)), link)
    full = reception_probability(make_scenario(Aloha(1.0)), link)
    worst = max(worst, abs(tiny - full) / full)
    _report(9, worst <= 1e-9,
            f"worst rel diff {worst:.2e} across the three limits "
            "(limit 1e-9)")


def test_criterion_10_deterministic_output(tmp_path):
    text = preset_config("fig2")
    run_config_text(text.replace("workers = 4", "workers = 2"),
                    out_dir=str(tmp_path / "a"))
    run_config_text(text.replace("workers = 4", "workers = 5"),
                    out_dir=str(tmp_path / "b"))
    data_a = (tmp_path / "a" / "fig2_outage.csv").read_bytes()
    data_b = (tmp_path / "b" / "fig2_outage.csv").read_bytes()
    _report(10, len(data_a) > 0 and data_a == data_b,
            f"fig2_outage.csv identical across worker counts "
            f"({len(data_a)} bytes)")
