import math

import numpy as np
import pytest

import crossrx
from crossrx import (Aloha, Csma, Erlang, Exponential, LogNormal, NoMac,
                     PathLossSpec, Position, analytic_view,
                     lt_interference_generic, reception_probability, road_lt,
                     throughput)
from crossrx.analytic import _quadrature_exponent
from crossrx.mac import access_probability
from crossrx.model import EUCLIDEAN
from crossrx.numerics import derivative_n, integrate_line, pochhammer
from crossrx.propagation import fading_lt

from conftest import BETA, CANYON, closed_form, zeta_of
from oracles import lt_h_sqrt_derivative

# Hand-computable reference: tx at the intersection, rx 100 m out,
# p = 0.005. zeta = beta * u^2 / A = 2.1032e9, b = A * zeta = 6.3096e4:
#   noise factor   zeta * N/P            = 0.00264776
#   H exponent     p lam pi sqrt(b)      = 0.03945662
#   V exponent     p lam pi b/sqrt(b+d^2) = 0.03665843
# so outage = 1 - exp(-0.07876281) = 0.075740877.
RURAL_OUTAGE_100M = 0.0757408769754504


def assert_exponents_match_quadrature(road, scen, link, s, orders=4):
    """The closed-form s^m G^(m)(s), m <= orders, against one quadrature
    per order."""
    closed = closed_form(road, scen, link).exponent(s, orders)
    quad = _quadrature_exponent(road, scen, link)(s, orders)
    assert np.allclose(closed, quad, rtol=0.0, atol=1e-11), road



def reference_exponent(road, scen, link, s, n):
    """s^m G^(m)(s), m <= n, from an integrand in its plain form: the
    intensity through Position and access_probability, a separate
    distance and fading transform, and a wrapper for the scaled variable
    u. The same breakpoints and float operations as the quadrature route."""
    mac = scen.mac
    fading = scen.fading_h if road == "h" else scen.fading_v
    loss = scen.loss_h if road == "h" else scen.loss_v
    lt_s = fading_lt(fading)
    rx, tx = link.rx, link.tx
    lam_road = scen.roads.density(road)
    cuts = []
    if isinstance(mac, Csma):
        delta = mac.delta
        cuts.extend((-delta, delta))
        along, perp = (tx.x, tx.y) if road == "h" else (tx.y, tx.x)
        gap = delta * delta - perp ** 2
        if gap >= 0.0:
            half = math.sqrt(gap)
            cuts.extend((along - half, along + half))

    def intensity(z):
        if isinstance(mac, Aloha):
            return mac.p * lam_road
        pos = Position(z, 0.0) if road == "h" else Position(0.0, z)
        dx, dy = pos.x - tx.x, pos.y - tx.y
        if dx * dx + dy * dy <= delta * delta:
            return 0.0
        return access_probability(pos, delta, scen.roads) * lam_road

    def dist(z):
        if road == "h":
            return abs(z - rx.x)
        if loss.norm == EUCLIDEAN:
            return math.hypot(rx.x, z)
        return abs(rx.x) + abs(z)

    center = rx.x if road == "h" else 0.0
    cuts.append(center)
    a_amp, alpha = loss.amplitude_a, loss.alpha
    k, theta = lt_s.k, lt_s.theta

    def integrate(term):
        def integrand(z):
            lam = intensity(z)
            if lam == 0.0:
                return 0.0
            r = dist(z)
            return lam * term(math.inf if r == 0.0 else a_amp * r ** (-alpha))

        reach = (s * theta * a_amp) ** (1.0 / alpha) or 1.0
        value, _err = integrate_line(
            lambda u: reach * integrand(center + reach * u),
            breakpoints=[(c - center) / reach for c in cuts] + [-1.0, 1.0])
        return value

    out = [integrate(lambda g: 1.0 - lt_s(s * g))]
    for m in range(1, n + 1):
        coef = (-1.0) ** (m + 1) * pochhammer(k, m)

        def term(g, m=m, coef=coef):
            if g == math.inf:
                return 0.0
            x = s * theta * g
            return coef * (x / (1.0 + x)) ** m * (1.0 + x) ** -k

        out.append(integrate(term))
    return out


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("alpha", [2.0, 3.0])
@pytest.mark.parametrize("norm", ["euclidean", "manhattan"])
@pytest.mark.parametrize("road", ["h", "v"])
@pytest.mark.parametrize("mac", [Aloha(0.01), Csma(500.0), Csma(10000.0)])
def test_quadrature_exponent_is_bitwise_reference(make_scenario, make_link,
                                                  mac, road, norm, alpha, k):
    loss = PathLossSpec(norm, 3e-5, alpha)
    fading = Erlang(k, 0.66)
    scen = make_scenario(mac, loss_h=loss, loss_v=loss, fading_h=fading,
                         fading_v=fading)
    # tx at 150 m: the kill disc cuts the V road too at delta = 500.
    link = make_link((150, 0), (300, 0))
    s = zeta_of(scen, link)
    assert (_quadrature_exponent(road, scen, link)(s, 3)
            == reference_exponent(road, scen, link, s, 3))

def test_lt_rural_h_hand_value(make_scenario, make_link):
    scen = make_scenario(Aloha(0.005))
    link = make_link((0, 0), (100, 0))
    got = closed_form("h", scen, link)(1e9)
    expected = math.exp(-0.005 * 0.01 * math.pi * math.sqrt(3e-5 * 1e9))
    assert np.isclose(got, expected, rtol=1e-12)


def test_lt_rural_v_shrinks_with_offset(make_scenario, make_link):
    scen = make_scenario(Aloha(0.005))
    s = 1e9
    vals = [closed_form("v", scen, make_link((d + 100, 0), (d, 0)))(s)
            for d in (0.0, 50.0, 500.0)]
    # interference weakens as the receiver moves away from the corner
    assert vals == sorted(vals)
    assert np.isclose(vals[0],
                      closed_form("h", scen, make_link((100, 0), (0, 0)))(s),
                      rtol=1e-12)


@pytest.mark.parametrize("s", [1e8, 1e9, 1e10])
@pytest.mark.parametrize("d", [10.0, 100.0, 500.0])
def test_lt_rural_v_matches_quadrature(make_scenario, make_link, s, d):
    scen = make_scenario(Aloha(0.01))
    link = make_link((d + 100, 0), (d, 0))
    assert np.isclose(closed_form("v", scen, link)(s),
                      lt_interference_generic("v", scen, link, s), rtol=1e-9)
    assert_exponents_match_quadrature("v", scen, link, s)


@pytest.mark.parametrize("s", [1e8, 1e9, 1e10])
def test_lt_urban_v_matches_quadrature(make_scenario, make_link, s):
    scen = make_scenario(Aloha(0.01), loss_useful=CANYON, loss_v=CANYON,
                         fading_useful=Erlang(2, 0.66), fading_v=Erlang(2, 0.66))
    link = make_link((0, 50), (80, 0))
    assert np.isclose(closed_form("v", scen, link)(s),
                      lt_interference_generic("v", scen, link, s), rtol=1e-9)
    assert_exponents_match_quadrature("v", scen, link, s)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0])
def test_power_law_exponents_match_quadrature(make_scenario, make_link,
                                              alpha, k):
    # The incomplete-beta closed form on the receiver's road (d = 0) and
    # on the street-canyon V road at distance d from the corner.
    fading = Erlang(k, 0.66)
    scen = make_scenario(Aloha(0.01),
                         loss_h=PathLossSpec("euclidean", 3e-5, alpha),
                         loss_v=PathLossSpec("manhattan", 3e-5, alpha),
                         fading_h=fading, fading_v=fading)
    for s in (1e8, 1e9, 1e10):
        assert_exponents_match_quadrature("h", scen,
                                          make_link((0, 0), (10, 0)), s)
        for d in (10.0, 100.0, 500.0):
            assert_exponents_match_quadrature("v", scen,
                                              make_link((0, 50), (d, 0)), s)


def test_lt_at_zero_is_one(make_scenario, make_link):
    scen = make_scenario(Aloha(0.01))
    link = make_link((100, 0), (0, 0))
    assert closed_form("h", scen, link)(0.0) == 1.0
    assert closed_form("v", scen, link)(0.0) == 1.0
    assert lt_interference_generic("h", scen, link, 0.0) == 1.0


def test_lt_generic_rejects_negative_s(make_scenario, make_link):
    with pytest.raises(ValueError):
        lt_interference_generic("h", make_scenario(Aloha(0.01)),
                                make_link((100, 0), (0, 0)), -1.0)


def test_lt_nomac_is_unit(make_scenario, make_link):
    scen = make_scenario(NoMac())
    link = make_link((100, 0), (0, 0))
    assert lt_interference_generic("h", scen, link, 1e9) == 1.0


def test_lt_h_sqrt_derivative_low_orders():
    kappa, zeta = 3.44e-6, 1e8
    base = math.exp(-kappa * math.sqrt(zeta))
    assert np.isclose(lt_h_sqrt_derivative(kappa, zeta, 0), base, rtol=1e-14)
    d1 = -kappa / (2 * math.sqrt(zeta)) * base
    assert np.isclose(lt_h_sqrt_derivative(kappa, zeta, 1), d1, rtol=1e-12)


@pytest.mark.parametrize("kappa", [8.6e-7, 3.44e-6, 1.72e-5])
@pytest.mark.parametrize("zeta", [1e6, 1e8])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_lt_h_sqrt_derivative_vs_differencing(kappa, zeta, n):
    exact = lt_h_sqrt_derivative(kappa, zeta, n)
    fd = derivative_n(lambda z: math.exp(-kappa * math.sqrt(z)), zeta, n)
    assert np.isclose(fd, exact, rtol=1e-6)


@pytest.mark.parametrize("p", [0.005, 0.02, 0.1])
@pytest.mark.parametrize("zeta", [1e6, 1e8, 1e10])
def test_h_road_derivatives_match_pochhammer_oracle(make_scenario, make_link,
                                                    p, zeta):
    # At alpha = 2 with exponential fading L_H = exp(-kappa sqrt(s)).
    lt = closed_form("h", make_scenario(Aloha(p)), make_link((100, 0), (0, 0)))
    kappa = p * 0.01 * math.pi * math.sqrt(3e-5)
    exact = [zeta ** n * lt_h_sqrt_derivative(kappa, zeta, n)
             for n in range(8)]
    assert np.allclose(lt.derivatives(zeta, 7), exact, rtol=1e-12, atol=0.0)


def test_reception_rural_reference_point(make_scenario, make_link):
    scen = make_scenario(Aloha(0.005))
    link = make_link((0, 0), (100, 0))
    assert np.isclose(1.0 - reception_probability(scen, link),
                      RURAL_OUTAGE_100M, rtol=1e-10)


def test_reception_rural_monotone(make_scenario, make_link):
    outage = []
    for p in (0.0, 0.002, 0.02, 0.2):
        scen = make_scenario(Aloha(p))
        outage.append(1.0 - reception_probability(
            scen, make_link((0, 0), (100, 0))))
    assert outage == sorted(outage)
    by_distance = [1.0 - reception_probability(make_scenario(Aloha(0.01)),
                                               make_link((u, 0), (0, 0)))
                   for u in (50, 150, 450)]
    assert by_distance == sorted(by_distance)


def assert_routes(scen, link, route_h, route_v):
    """Each road takes the expected route, and its value at zeta agrees
    with the quadrature."""
    s = zeta_of(scen, link)
    for road, route in (("h", route_h), ("v", route_v)):
        lt = road_lt(road, scen, link)
        assert lt.provenance == route
        assert np.isclose(lt(s), lt_interference_generic(road, scen, link, s),
                          rtol=1e-9)


def test_reception_rural_requires_matching_scenario(make_scenario, make_link):
    # The exponential line-of-sight V closed form applies only under
    # Aloha, exponential fading and alpha = 2; elsewhere the road falls
    # back to quadrature or to a closed form that still matches it.
    link = make_link((100, 0), (0, 0))
    assert_routes(make_scenario(Csma(500.0)), link,
                  "quadrature", "quadrature")
    assert_routes(make_scenario(Aloha(0.01), fading_h=Erlang(2, 0.66)), link,
                  "closed-form", "closed-form")
    assert_routes(make_scenario(
        Aloha(0.01), loss_v=PathLossSpec("euclidean", 3e-5, 4.0)), link,
        "closed-form", "quadrature")


def urban_scenario(make_scenario, p=0.005, fit=Erlang(2, 0.656)):
    return make_scenario(Aloha(p), loss_useful=CANYON, loss_v=CANYON,
                         fading_useful=fit, fading_v=fit)


# Street-canyon reception, k0 = 2, frozen from the dedicated street-canyon
# evaluator, which the generic C/D sum reproduced exactly.
URBAN_RECEPTION = {(50, 60): 0.9461721600548294,
                   (150, 10): 0.914195702943462,
                   (50, 300): 0.8323071208005597}


def test_reception_urban_matches_generic(make_scenario, make_link):
    scen = urban_scenario(make_scenario)
    for (tx_y, d), expected in URBAN_RECEPTION.items():
        link = make_link((0, tx_y), (d, 0))
        assert np.isclose(reception_probability(scen, link), expected,
                          rtol=1e-9)


def test_reception_urban_dispatch(make_scenario, make_link):
    scen = urban_scenario(make_scenario)
    assert_routes(scen, make_link((0, 50), (60, 0)),
                  "closed-form", "closed-form")


def test_reception_urban_in_unit_interval(make_scenario, make_link):
    scen = urban_scenario(make_scenario, p=0.05, fit=Erlang(3, 0.5))
    for d in (10, 100, 1000):
        value = reception_probability(scen, make_link((0, 50), (d, 0)))
        assert 0.0 <= value <= 1.0


def test_reception_urban_requires_street_canyon(make_scenario, make_link):
    # Fully line of sight, and street canyon with Erlang(2) interferers on
    # the receiver's road: both take closed forms that match quadrature.
    link = make_link((0, 50), (60, 0))
    assert_routes(make_scenario(Aloha(0.01)), link,
                  "closed-form", "closed-form")
    assert_routes(make_scenario(Aloha(0.01), loss_useful=CANYON,
                                loss_v=CANYON,
                                fading_useful=Erlang(2, 0.66),
                                fading_v=Erlang(2, 0.66),
                                fading_h=Erlang(2, 0.66)), link,
                  "closed-form", "closed-form")
    # alpha = 3 street canyon far from the corner, where the
    # hypergeometric series of the earlier closed form did not converge.
    canyon3 = PathLossSpec("manhattan", 3e-5, 3.0)
    scen = make_scenario(Aloha(0.01), loss_useful=canyon3, loss_h=canyon3,
                         loss_v=canyon3)
    link = make_link((310, 0), (300, 0))
    assert_routes(scen, link, "closed-form", "closed-form")
    assert 0.0 <= reception_probability(scen, link) <= 1.0


def test_reception_erlang_shape_above_five(make_scenario, make_link):
    # Derivatives are exact at any order, so k0 > 5 needs no cap. The
    # first CSMA point takes quadratures up to order 18 far beyond the
    # sensing radius (zeta ~ 1e13); on the second, zeta N~ ~ 1e8 and
    # k0 = 39, so no power of zeta N~ may be formed on its own.
    alpha4 = PathLossSpec("euclidean", 3e-5, 4.0)
    cases = [
        (make_scenario(Aloha(0.01), fading_useful=Erlang(7, 0.2)),
         make_link((100, 0), (0, 0))),
        (make_scenario(Csma(500.0), fading_useful=LogNormal(1.0)),
         make_link((0, 0), (1500, 0))),
        (make_scenario(Csma(500.0), loss_useful=alpha4, loss_h=alpha4,
                       fading_useful=LogNormal(0.7)),
         make_link((2000, 0), (0, 0))),
    ]
    for scen, link in cases:
        assert 0.0 <= reception_probability(scen, link) <= 1.0


def test_reception_lognormal_equals_its_analytic_view(make_scenario,
                                                      make_link):
    scen = make_scenario(Aloha(0.01), loss_useful=CANYON, loss_v=CANYON,
                         fading_useful=LogNormal(3.2),
                         fading_v=LogNormal(3.2))
    link = make_link((0, 50), (60, 0))
    view = analytic_view(scen)
    assert isinstance(view.fading_useful, Erlang)
    assert view.fading_v == view.fading_useful
    assert view.fading_h == scen.fading_h
    assert analytic_view(view) is view
    assert reception_probability(scen, link) == reception_probability(view,
                                                                      link)
    assert throughput(scen, link) == throughput(view, link)


def test_reception_generic_erlang_h_road(make_scenario, make_link):
    # Erlang interferers on the receiver road: closed-form K against the
    # quadrature fallback, both driven through the same public entry
    scen = make_scenario(Aloha(0.01), fading_h=Erlang(2, 0.66))
    link = make_link((100, 0), (0, 0))
    value = reception_probability(scen, link)
    assert 0.0 < value < 1.0
    s = zeta_of(scen, link)
    lh = lt_interference_generic("h", scen, link, s)
    lv = lt_interference_generic("v", scen, link, s)
    direct = math.exp(-(link.noise_w / link.power_w) * s) * lh * lv
    assert np.isclose(value, direct, rtol=1e-9)


def test_reception_csma_degenerate_radius(make_scenario, make_link):
    link = make_link((0, 0), (100, 0))
    tiny = reception_probability(make_scenario(Csma(1e-9)), link)
    full = reception_probability(make_scenario(Aloha(1.0)), link)
    assert np.isclose(tiny, full, rtol=1e-9)


def test_reception_csma_improves_with_radius(make_scenario, make_link):
    link = make_link((0, 0), (100, 0))
    values = [reception_probability(make_scenario(Csma(delta)), link)
              for delta in (100.0, 500.0, 2000.0, 10000.0)]
    assert values == sorted(values)


@pytest.mark.parametrize("mac", [Aloha(0.01), Csma(500.0)])
@pytest.mark.parametrize("fading", [Exponential(), Erlang(3, 0.4)])
def test_reception_of_an_underflowing_gain_is_its_limit(make_scenario,
                                                        make_link, mac,
                                                        fading):
    # At 1e200 m the useful path gain underflows to 0.0, at 1e155 m beta
    # over it overflows: zeta -> inf, where noise and interferers win.
    scen = make_scenario(mac, fading_useful=fading)
    for far in (1e200, 1e155):
        assert reception_probability(scen, make_link((far, 0), (0, 0))) == 0.0
        quiet = make_link((far, 0), (0, 0), noise_w=0.0)
        assert reception_probability(scen, quiet) == 0.0
        for silent in (NoMac(), Aloha(0.0)):
            scen_silent = make_scenario(silent, fading_useful=fading)
            assert reception_probability(scen_silent, quiet) == 1.0


def test_throughput_aloha_product(make_scenario, make_link):
    scen = make_scenario(Aloha(0.006))
    link = make_link((100, 0), (0, 0))
    expected = 0.006 * reception_probability(scen, link) * math.log2(1 + BETA)
    assert np.isclose(throughput(scen, link), expected, rtol=1e-15)


def test_throughput_nomac(make_scenario, make_link):
    scen = make_scenario(NoMac())
    link = make_link((100, 0), (0, 0))
    assert np.isclose(throughput(scen, link),
                      reception_probability(scen, link) * math.log2(1 + BETA),
                      rtol=1e-15)


def test_throughput_csma_uses_tx_access(make_scenario, make_link):
    scen = make_scenario(Csma(500.0))
    link = make_link((0, 0), (100, 0))
    p_a = crossrx.access_probability(Position(0, 0), 500.0, scen.roads)
    expected = p_a * reception_probability(scen, link) * math.log2(1 + BETA)
    assert np.isclose(throughput(scen, link), expected, rtol=1e-15)
