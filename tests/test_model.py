import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from crossrx import (Aloha, Csma, Erlang, Exponential, LinkSpec, LogNormal,
                     NoMac, PathLossSpec, Position, RoadConfig, Scenario,
                     distance, swap_roads, validate)

from conftest import BETA, LOS, NOISE_W


def test_distance_euclidean():
    assert distance(Position(0, 0), Position(3, 4), "euclidean") == 5.0


def test_distance_manhattan():
    assert distance(Position(0, 0), Position(3, 4), "manhattan") == 7.0


def test_distance_unknown_norm():
    with pytest.raises(ValueError):
        distance(Position(0, 0), Position(1, 1), "chebyshev")


def test_position_road_flags():
    assert Position(5, 0).on_h() and not Position(5, 0).on_v()
    assert Position(0, 5).on_v() and not Position(0, 5).on_h()
    origin = Position(0, 0)
    assert origin.on_h() and origin.on_v()


def test_road_density_dispatch(roads):
    assert roads.density("h") == 0.01
    assert roads.density("v") == 0.01
    with pytest.raises(ValueError):
        roads.density("diagonal")


def test_link_requires_rx_on_h():
    with pytest.raises(ValueError):
        LinkSpec(tx=Position(0, 0), rx=Position(0, 50), power_w=0.1,
                 noise_w=NOISE_W, beta=BETA)


def test_exponential_is_unit_erlang():
    f = Exponential(theta=2.5)
    assert isinstance(f, Erlang)
    assert f.k == 1 and f.theta == 2.5


def test_swap_roads_mirrors_geometry(make_scenario):
    scen = make_scenario(Aloha(0.01),
                         roads=RoadConfig(lambda_h=0.01, lambda_v=0.03))
    tx, rx = Position(7, 20), Position(0, -4)
    swapped, tx2, rx2 = swap_roads(scen, tx, rx)
    assert swapped.roads == RoadConfig(lambda_h=0.03, lambda_v=0.01)
    assert (tx2.x, tx2.y) == (20, 7)
    assert (rx2.x, rx2.y) == (-4, 0)
    back, tx3, rx3 = swap_roads(swapped, tx2, rx2)
    assert back == scen and tx3 == tx and rx3 == rx


def test_swap_roads_swaps_per_road_specs(make_scenario):
    canyon = PathLossSpec("manhattan", 3e-5, 2.0)
    scen = make_scenario(Aloha(0.01), loss_v=canyon,
                         fading_v=Erlang(2, 0.66))
    swapped, _, _ = swap_roads(scen, Position(0, 0), Position(1, 0))
    assert swapped.loss_h == canyon
    assert swapped.fading_h == Erlang(2, 0.66)
    assert swapped.loss_v == LOS


def test_validate_ok(make_scenario, make_link):
    report = validate(make_scenario(Aloha(0.005)),
                      make_link((100, 0), (0, 0)))
    assert report.ok and report.violations == ()


@pytest.mark.parametrize("mutate", [
    lambda s: dataclasses.replace(s, roads=RoadConfig(-0.01, 0.01)),
    lambda s: dataclasses.replace(s, mac=Aloha(1.5)),
    lambda s: dataclasses.replace(s, mac=Csma(0.0)),
    lambda s: dataclasses.replace(s, loss_h=PathLossSpec("euclidean", -1.0, 2.0)),
    lambda s: dataclasses.replace(s, loss_v=PathLossSpec("euclidean", 3e-5, 1.0)),
    lambda s: dataclasses.replace(s, loss_useful=PathLossSpec("hexagonal", 3e-5, 2.0)),
    lambda s: dataclasses.replace(s, fading_h=Erlang(0, 1.0)),
    lambda s: dataclasses.replace(s, fading_v=Erlang(2, -1.0)),
    lambda s: dataclasses.replace(s, fading_useful=LogNormal(0.0)),
])
def test_validate_flags_bad_scenarios(make_scenario, mutate):
    report = validate(mutate(make_scenario(Aloha(0.005))))
    assert not report.ok


def test_validate_flags_bad_link(make_scenario, make_link):
    bad = dataclasses.replace(make_link((100, 0), (0, 0)), power_w=0.0)
    assert not validate(make_scenario(Aloha(0.005)), bad).ok
    nan_pos = dataclasses.replace(make_link((100, 0), (0, 0)),
                                  tx=Position(math.nan, 0.0))
    assert not validate(make_scenario(Aloha(0.005)), nan_pos).ok


def test_validate_names_each_violation(make_scenario, make_link):
    link = make_link((100, 0), (0, 0))
    scen = make_scenario(Aloha(0.005))
    for bad, violation in [
            (dataclasses.replace(link, noise_w=-1e-13),
             "link: noise_w must be >= 0, got -1e-13"),
            (dataclasses.replace(link, beta=0.0),
             "link: beta must be positive, got 0.0")]:
        assert validate(scen, bad).violations == (violation,)
    for bad, violation in [
            (dataclasses.replace(scen, fading_h="rician"),
             "fading_h: unknown fading spec 'rician'"),
            (dataclasses.replace(scen, mac="tdma"),
             "mac: unknown protocol 'tdma'")]:
        assert validate(bad).violations == (violation,)


def test_validate_warns_near_intersection_nlos(make_scenario, make_link):
    canyon = PathLossSpec("manhattan", 3e-5, 2.0)
    scen = make_scenario(Aloha(0.005), loss_useful=canyon, loss_v=canyon)
    report = validate(scen, make_link((0, 50), (2, 0)))
    assert report.ok
    assert report.warnings
    # far from the corner the warning goes away
    assert not validate(scen, make_link((0, 50), (200, 0))).warnings


def test_nomac_validates(make_scenario):
    assert validate(make_scenario(NoMac())).ok


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@given(ax=finite, ay=finite, bx=finite, by=finite,
       norm=st.sampled_from(["euclidean", "manhattan"]))
def test_distance_is_a_metric(ax, ay, bx, by, norm):
    a, b = Position(ax, ay), Position(bx, by)
    d = distance(a, b, norm)
    assert d >= 0.0
    assert distance(a, a, norm) == 0.0
    assert math.isclose(d, distance(b, a, norm), rel_tol=1e-12)
    origin = Position(0.0, 0.0)
    assert (distance(a, origin, norm) + distance(origin, b, norm)
            >= d - 1e-9 * (1.0 + d))
