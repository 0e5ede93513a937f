import pytest

from crossrx import (Aloha, Exponential, LinkSpec, PathLossSpec, Position,
                     RoadConfig, Scenario, path_loss, road_lt)

NOISE_W = 10 ** (-99 / 10) * 1e-3
BETA = 10 ** 0.8
LOS = PathLossSpec(norm="euclidean", amplitude_a=3e-5, alpha=2.0)
CANYON = PathLossSpec(norm="manhattan", amplitude_a=3e-5, alpha=2.0)


def zeta_of(scen, link):
    """beta / (l(tx, rx) theta_0): where the reception pipeline evaluates
    each road's transform, for an Erlang (or exponential) useful link."""
    return (link.beta / path_loss(scen.loss_useful, link.tx, link.rx)
            / scen.fading_useful.theta)


def closed_form(road, scen, link):
    """road_lt for ``road``, asserting it took a closed form, so that a
    comparison against the quadrature cannot be trivially equal."""
    lt = road_lt(road, scen, link)
    assert lt.provenance == "closed-form", (road, scen)
    return lt


@pytest.fixture
def roads():
    return RoadConfig(lambda_h=0.01, lambda_v=0.01)


@pytest.fixture
def make_scenario(roads):
    """LOS scenario factory; pass loss/fading overrides as keywords."""
    def build(mac, **kw):
        spec = dict(roads=roads, mac=mac, loss_useful=LOS, loss_h=LOS,
                    loss_v=LOS, fading_useful=Exponential(),
                    fading_h=Exponential(), fading_v=Exponential())
        spec.update(kw)
        return Scenario(**spec)
    return build


@pytest.fixture
def make_link():
    def build(tx, rx, power_w=0.1, noise_w=NOISE_W, beta=BETA):
        return LinkSpec(tx=Position(*tx), rx=Position(*rx), power_w=power_w,
                        noise_w=noise_w, beta=beta)
    return build
