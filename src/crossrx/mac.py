"""Medium-access model: interferer intensities and access probability.

Aloha thins each road's point process independently to p * lambda_R.

CSMA is approximated by an inhomogeneous thinning: a node at z transmits
with the probability that its random backoff timer is the strict minimum
within its contention ball of radius delta. With Lambda(z) nodes in the
ball on average, that probability is (1 - exp(-Lambda))/Lambda. Near the
intersection the ball additionally covers a chord of the other road,
which is what couples the two roads' contention. Inside the tagged
transmitter's own ball the intensity is exactly zero: everyone there
lost the timer race to the node we condition on transmitting.

Positions handed to these functions must sit on one of the roads; the
contention geometry is only defined there.
"""

from __future__ import annotations

import math
from typing import Callable

from .model import Aloha, Csma, Position, RoadConfig, Scenario

IntensityFn = Callable[[float], float]


class WrongMac(TypeError):
    """Operation called with a scenario whose MAC does not match."""


class OffRoadPosition(ValueError):
    """Position is on neither road."""


def _road_of(pos: Position) -> str:
    # (0, 0) is on both; calling it H is arbitrary and harmless since
    # both branches then coincide.
    if pos.y == 0.0:
        return "h"
    if pos.x == 0.0:
        return "v"
    raise OffRoadPosition(f"{pos} lies on neither road")


def contention_mass(z_pos: Position, delta: float, roads: RoadConfig) -> float:
    """Expected number of competitors within distance delta of z_pos.

    Own-road segment always contributes 2*delta*lambda_R; the other road
    contributes its chord 2*sqrt(delta^2 - |z|^2) only when the ball
    actually reaches it (|z| <= delta, boundary included).
    """

    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    road = _road_of(z_pos)
    own = roads.density(road)
    other = roads.density("v" if road == "h" else "h")
    r = abs(z_pos.x) if road == "h" else abs(z_pos.y)
    mass = 2.0 * delta * own
    if r <= delta:
        mass += 2.0 * math.sqrt(delta * delta - r * r) * other
    return mass


def access_probability_from_mass(mass: float) -> float:
    """(1 - exp(-Lambda))/Lambda, with the Lambda -> 0 limit handled."""

    if mass < 0:
        raise ValueError(f"contention mass must be >= 0, got {mass}")
    if mass < 1e-8:
        # Second-order Taylor expansion; avoids 0/0 at an empty ball.
        return 1.0 - mass / 2.0 + mass * mass / 6.0
    return -math.expm1(-mass) / mass


def access_probability(z_pos: Position, delta: float, roads: RoadConfig) -> float:
    """Probability that the node at z_pos wins its contention timer."""

    return access_probability_from_mass(contention_mass(z_pos, delta, roads))


def access_probability_at(scenario: Scenario, pos: Position) -> float:
    """Probability that a node at pos accesses the channel under the
    scenario's MAC: p for Aloha, the CSMA timer-race win probability, 1
    without a MAC."""

    mac = scenario.mac
    if isinstance(mac, Aloha):
        return mac.p
    if isinstance(mac, Csma):
        # The contention geometry is defined on the roads only.
        return access_probability(pos, mac.delta, scenario.roads)
    return 1.0


def aloha_intensity(road: str, scenario: Scenario, tx: Position) -> IntensityFn:
    """Constant thinned intensity z -> p * lambda_R. tx is unused: Aloha

    nodes do not react to each other."""

    if not isinstance(scenario.mac, Aloha):
        raise WrongMac(f"aloha_intensity needs an Aloha scenario, got {scenario.mac}")
    level = scenario.mac.p * scenario.roads.density(road)
    return lambda z: level


def csma_intensity(road: str, scenario: Scenario, tx: Position) -> IntensityFn:
    """Intensity of transmitting CSMA nodes on ``road``, given tx active.

    Piecewise along the road coordinate z:
      * zero when the point is within delta of tx (full planar distance;
        boundary equality goes to the exclusion branch, a deterministic
        choice on a measure-zero set),
      * p_A(z) * lambda_R otherwise, where p_A picks up the cross-road
        coupling automatically within |z| <= delta of the intersection.
    """

    mac = scenario.mac
    if not isinstance(mac, Csma):
        raise WrongMac(f"csma_intensity needs a CSMA scenario, got {mac}")
    delta = mac.delta
    lam = scenario.roads.density(road)
    roads = scenario.roads
    delta_sq = delta * delta

    def intensity(z: float) -> float:
        if road == "h":
            pos = Position(z, 0.0)
            dx, dy = z - tx.x, -tx.y
        else:
            pos = Position(0.0, z)
            dx, dy = -tx.x, z - tx.y
        if dx * dx + dy * dy <= delta_sq:
            return 0.0
        return access_probability(pos, delta, roads) * lam

    return intensity
