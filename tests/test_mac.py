import math

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from crossrx import (Aloha, Csma, Exponential, OffRoadPosition, PathLossSpec,
                     Position, RoadConfig, Scenario, WrongMac,
                     access_probability, aloha_intensity, contention_mass,
                     csma_intensity)
from crossrx.mac import access_probability_from_mass, sensing_range


def test_contention_mass_near_intersection(roads):
    # ball of radius 500 at (300, 0): 10 on the own road plus a chord
    # of 2*sqrt(500^2 - 300^2) = 800 on the other
    assert contention_mass(Position(300, 0), 500.0, roads) == 18.0


def test_contention_mass_symmetry(roads):
    on_v = contention_mass(Position(0, 300), 500.0, roads)
    assert on_v == 18.0


def test_contention_mass_at_intersection(roads):
    assert contention_mass(Position(0, 0), 500.0, roads) == 20.0


def test_contention_mass_far_from_intersection(roads):
    assert contention_mass(Position(600, 0), 500.0, roads) == 10.0
    # boundary: the chord degenerates to a point
    assert contention_mass(Position(500, 0), 500.0, roads) == 10.0


def test_contention_mass_rejects_bad_input(roads):
    with pytest.raises(ValueError):
        contention_mass(Position(0, 0), 0.0, roads)
    with pytest.raises(OffRoadPosition):
        contention_mass(Position(3, 4), 500.0, roads)


def test_access_probability_reference_points(roads):
    assert np.isclose(access_probability(Position(0, 0), 500.0, roads),
                      (1.0 - math.exp(-20.0)) / 20.0, rtol=1e-14)
    assert np.isclose(access_probability_from_mass(10.0),
                      (1.0 - math.exp(-10.0)) / 10.0, rtol=1e-14)
    assert np.isclose(access_probability_from_mass(200.0), 0.005, rtol=1e-10)


def test_access_probability_small_mass_limit():
    assert access_probability_from_mass(0.0) == 1.0
    assert math.isclose(access_probability_from_mass(1e-10), 1.0 - 5e-11,
                        rel_tol=1e-13)
    # continuity across the Taylor switchover
    below = access_probability_from_mass(1e-8 * (1 - 1e-9))
    above = access_probability_from_mass(1e-8 * (1 + 1e-9))
    assert abs(below - above) < 1e-12


@given(mass=st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
def test_access_probability_bounds(mass):
    p = access_probability_from_mass(mass)
    assert 0.0 < p <= 1.0


@given(a=st.floats(min_value=0.0, max_value=1e3),
       b=st.floats(min_value=0.0, max_value=1e3))
def test_access_probability_monotone(a, b):
    lo, hi = sorted((a, b))
    assert (access_probability_from_mass(lo)
            >= access_probability_from_mass(hi))


def test_aloha_intensity_constant(make_scenario):
    scen = make_scenario(Aloha(0.005))
    fn = aloha_intensity("h", scen, Position(0, 0))
    assert fn(0.0) == fn(12345.6) == 0.005 * 0.01


def test_aloha_intensity_wrong_mac(make_scenario):
    with pytest.raises(WrongMac):
        aloha_intensity("h", make_scenario(Csma(500.0)), Position(0, 0))


def test_csma_intensity_zero_inside_exclusion(make_scenario):
    scen = make_scenario(Csma(500.0))
    fn = csma_intensity("h", scen, Position(100, 0))
    assert fn(100.0) == 0.0
    assert fn(599.0) == 0.0
    assert fn(600.0) == 0.0  # boundary goes to the exclusion branch
    assert fn(601.0) > 0.0


def test_csma_intensity_cross_road_exclusion(make_scenario):
    # tx on the V road shadows the H road near the intersection
    scen = make_scenario(Csma(500.0))
    fn = csma_intensity("h", scen, Position(0, 300))
    assert fn(0.0) == 0.0
    assert fn(399.0) == 0.0  # sqrt(500^2 - 300^2) = 400
    assert fn(401.0) > 0.0


def test_csma_intensity_far_value(make_scenario):
    scen = make_scenario(Csma(500.0))
    fn = csma_intensity("h", scen, Position(0, 0))
    # far from both tx and the intersection the thinning is homogeneous
    expected = access_probability_from_mass(2 * 500.0 * 0.01) * 0.01
    assert np.isclose(fn(5000.0), expected, rtol=1e-14)


def test_csma_intensity_couples_roads(make_scenario):
    scen = make_scenario(Csma(500.0),
                         roads=RoadConfig(lambda_h=0.01, lambda_v=0.05))
    fn = csma_intensity("h", scen, Position(10000, 0))
    # near the intersection contention is stiffer, so fewer transmit
    assert fn(100.0) < fn(5000.0)


def test_csma_intensity_wrong_mac(make_scenario):
    with pytest.raises(WrongMac):
        csma_intensity("v", make_scenario(Aloha(0.5)), Position(0, 0))


# Transmitters on H, on V, at the corner and off both roads. The first
# two are far enough out that their kill discs leave most of the stretch
# |z| <= delta, where the contention ball reaches the other road, alive.
INTENSITY_TXS = [Position(1700.0, 0.0), Position(0.0, -1300.0),
                 Position(0.0, 0.0), Position(120.0, 80.0)]


@given(road=st.sampled_from("hv"), tx=st.sampled_from(INTENSITY_TXS),
       z=st.floats(-3000.0, 3000.0),
       delta=st.floats(1.0, 2000.0),
       lam_h=st.floats(1e-4, 0.1), lam_v=st.floats(1e-4, 0.1))
@example(road="v", tx=INTENSITY_TXS[0], z=0.0, delta=500.0, lam_h=0.01,
         lam_v=0.03)  # the corner, on the V road
@example(road="h", tx=INTENSITY_TXS[1], z=0.0, delta=200.0, lam_h=0.01,
         lam_v=0.03)
@example(road="h", tx=INTENSITY_TXS[0], z=-500.0, delta=500.0, lam_h=0.02,
         lam_v=0.01)  # |z| = delta, where the chord closes
@example(road="v", tx=INTENSITY_TXS[0], z=500.0, delta=500.0, lam_h=0.02,
         lam_v=0.01)
@example(road="h", tx=INTENSITY_TXS[0], z=27.8, delta=1044.8, lam_h=0.01,
         lam_v=0.03)  # inside the chord stretch, off round numbers
@example(road="v", tx=INTENSITY_TXS[0], z=-71.7, delta=1234.5, lam_h=0.01,
         lam_v=0.03)
@example(road="h", tx=INTENSITY_TXS[1], z=400.0, delta=1360.1470508735442,
         lam_h=0.01, lam_v=0.01)  # at a kill-disc chord end, up to rounding
@example(road="v", tx=INTENSITY_TXS[3], z=160.0, delta=144.22205101855957,
         lam_h=0.01, lam_v=0.01)  # ditto, tx off the roads
@example(road="h", tx=INTENSITY_TXS[0], z=2200.0, delta=500.0, lam_h=0.01,
         lam_v=0.01)  # exactly on the kill-disc chord end
@example(road="v", tx=INTENSITY_TXS[1], z=-1800.0, delta=500.0, lam_h=0.01,
         lam_v=0.01)
@example(road="h", tx=INTENSITY_TXS[2], z=5.0, delta=1e-3, lam_h=1e-6,
         lam_v=1e-6)  # contention mass below 1e-8: the Taylor branch
def test_csma_intensity_is_access_probability_times_density(
        road, tx, z, delta, lam_h, lam_v):
    roads = RoadConfig(lambda_h=lam_h, lambda_v=lam_v)
    los = PathLossSpec(norm="euclidean", amplitude_a=3e-5, alpha=2.0)
    scen = Scenario(roads=roads, mac=Csma(delta), loss_useful=los,
                    loss_h=los, loss_v=los, fading_useful=Exponential(),
                    fading_h=Exponential(), fading_v=Exponential())
    pos = Position(z, 0.0) if road == "h" else Position(0.0, z)
    dx, dy = pos.x - tx.x, pos.y - tx.y
    if dx * dx + dy * dy <= delta * delta:
        expected = 0.0
    else:
        expected = access_probability(pos, delta, roads) * roads.density(road)
    assert csma_intensity(road, scen, tx)(z) == expected


# Densities: empty roads among them.
DENSITIES = st.one_of(st.just(0.0), st.floats(1e-6, 0.1))


@given(road=st.sampled_from("hv"), z=st.floats(-3000.0, 3000.0),
       delta=st.floats(1e-3, 1e4), lam_h=DENSITIES, lam_v=DENSITIES)
@example(road="h", z=0.0, delta=500.0, lam_h=0.01, lam_v=0.03)  # the corner
@example(road="h", z=-300.0, delta=300.0, lam_h=0.02,
         lam_v=0.01)  # delta = |z|, where the chord opens
@example(road="h", z=300.0, delta=500.0, lam_h=0.0,
         lam_v=0.01)  # empty own road
@example(road="h", z=300.0, delta=500.0, lam_h=0.01,
         lam_v=0.0)  # empty other road
@example(road="v", z=150.0, delta=427.3, lam_h=0.01, lam_v=0.003)  # on V
def test_sensing_range_inverts_contention_mass(road, z, delta, lam_h, lam_v):
    roads = RoadConfig(lambda_h=lam_h, lambda_v=lam_v)
    pos = Position(z, 0.0) if road == "h" else Position(0.0, z)
    mass = contention_mass(pos, delta, roads)
    # No ball reaching only an empty road has a unique radius.
    assume(mass > 0)
    assert math.isclose(sensing_range(pos, mass, roads), delta,
                        rel_tol=1e-14)


def test_sensing_range_reference_points(roads):
    # The contention_mass reference points above, inverted.
    for pos, mass in ((Position(300, 0), 18.0), (Position(0, 300), 18.0),
                      (Position(0, 0), 20.0), (Position(600, 0), 10.0)):
        assert math.isclose(sensing_range(pos, mass, roads), 500.0,
                            rel_tol=1e-15)


def test_sensing_range_edge_cases(roads):
    empty = RoadConfig(lambda_h=0.0, lambda_v=0.0)
    assert sensing_range(Position(150, 0), 0.05, empty) == math.inf
    assert sensing_range(Position(0, 0), 0.05, empty) == math.inf
    with pytest.raises(OffRoadPosition):
        sensing_range(Position(3, 4), 18.0, roads)
    with pytest.raises(ValueError):
        sensing_range(Position(0, 0), 0.0, roads)
