"""Domain types for a two-road intersection scenario.

Geometry convention used everywhere in this package: two perpendicular
roads of zero width cross at the origin. The H road is the x axis (points
(x, 0)), the V road is the y axis (points (0, y)). Vehicle locations on
each road form independent homogeneous Poisson point processes with
densities ``lambda_h`` and ``lambda_v`` per meter.

All lengths are meters, powers are watts, and the SINR threshold ``beta``
is linear. dB / dBm conversions happen at the config boundary (see
``cli``), never inside the model.

Types here are immutable value records. Constructors do basic shape
enforcement only; physics invariants are checked by :func:`validate`,
which returns a report instead of raising so a caller can surface every
problem at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

EUCLIDEAN = "euclidean"
MANHATTAN = "manhattan"


@dataclass(frozen=True)
class Position:
    """A point in the plane, meters."""

    x: float
    y: float

    def on_h(self) -> bool:
        return self.y == 0.0

    def on_v(self) -> bool:
        return self.x == 0.0


@dataclass(frozen=True)
class RoadConfig:
    """Vehicle densities per meter for the two roads."""

    lambda_h: float
    lambda_v: float

    def density(self, road: str) -> float:
        if road == "h":
            return self.lambda_h
        if road == "v":
            return self.lambda_v
        raise ValueError(f"unknown road tag {road!r}, expected 'h' or 'v'")


@dataclass(frozen=True)
class Aloha:
    """Slotted Aloha: every vehicle transmits independently w.p. ``p``."""

    p: float


@dataclass(frozen=True)
class Csma:
    """CSMA with sensing range ``delta`` (Matern type II hard core).

    A vehicle transmits iff its random backoff mark is the strict minimum
    among all vehicles within Euclidean distance ``delta``.
    """

    delta: float


@dataclass(frozen=True)
class NoMac:
    """No medium access control: nobody but the tagged node transmits."""


MacProtocol = Union[Aloha, Csma, NoMac]


@dataclass(frozen=True)
class PathLossSpec:
    """Power path loss ``amplitude_a * distance(norm) ** -alpha``.

    ``norm`` selects how distance is measured: ``"euclidean"`` models a
    line-of-sight link, ``"manhattan"`` a link whose signal propagates
    along the street canyons.
    """

    norm: str
    amplitude_a: float
    alpha: float


@dataclass(frozen=True)
class Erlang:
    """Erlang fading: sum of ``k`` i.i.d. exponentials with scale ``theta``.

    ``k = 1`` is exponential (Rayleigh power) fading.
    """

    k: int
    theta: float


def Exponential(theta: float = 1.0) -> Erlang:
    """Exponential fading, canonicalized to ``Erlang(1, theta)``."""

    return Erlang(1, float(theta))


@dataclass(frozen=True)
class LogNormal:
    """Log-normal shadowing with the given dB spread and unit median.

    Only sampling is supported; the Laplace transform has no closed form.
    The analytic engine evaluates its Erlang surrogate
    ``propagation.erlang_fit(sigma_db)`` instead (see
    ``analytic.analytic_view``); the Monte Carlo engine samples this law.
    """

    sigma_db: float


FadingSpec = Union[Erlang, LogNormal]


@dataclass(frozen=True)
class LinkSpec:
    """One tagged transmitter-receiver pair.

    The receiver must lie on the H road; this is a convention, not a loss
    of generality (use :func:`swap_roads` for scenarios whose receiver
    sits on the V road). The transmitter may be anywhere.
    """

    tx: Position
    rx: Position
    power_w: float
    noise_w: float
    beta: float

    def __post_init__(self) -> None:
        if not self.rx.on_h():
            raise ValueError(
                f"receiver must lie on the H road (y = 0), got {self.rx}"
            )


@dataclass(frozen=True)
class Scenario:
    """Everything about the environment except the tagged link itself."""

    roads: RoadConfig
    mac: MacProtocol
    loss_useful: PathLossSpec
    loss_h: PathLossSpec
    loss_v: PathLossSpec
    fading_useful: FadingSpec
    fading_h: FadingSpec
    fading_v: FadingSpec


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def distance(a: Position, b: Position, norm: str) -> float:
    """Distance between two points under the given norm."""

    if norm == EUCLIDEAN:
        return math.hypot(a.x - b.x, a.y - b.y)
    if norm == MANHATTAN:
        return abs(a.x - b.x) + abs(a.y - b.y)
    raise ValueError(f"unknown norm {norm!r}, expected 'euclidean' or 'manhattan'")


def swap_roads(scenario: Scenario, tx: Position, rx: Position):
    """Mirror a scenario across the diagonal so the receiver lands on H.

    Swapping (x, y) -> (y, x) exchanges the roles of the two roads and
    leaves every distance (either norm) unchanged, so reception results
    computed on the swapped scenario apply verbatim to the original.
    Returns ``(scenario, tx, rx)`` with all positions and per-road
    parameters swapped.
    """

    swapped = Scenario(
        roads=RoadConfig(lambda_h=scenario.roads.lambda_v,
                         lambda_v=scenario.roads.lambda_h),
        mac=scenario.mac,
        loss_useful=scenario.loss_useful,
        loss_h=scenario.loss_v,
        loss_v=scenario.loss_h,
        fading_useful=scenario.fading_useful,
        fading_h=scenario.fading_v,
        fading_v=scenario.fading_h,
    )
    return swapped, Position(tx.y, tx.x), Position(rx.y, rx.x)


def _check_loss(tag: str, spec: PathLossSpec, problems: list[str]) -> None:
    if spec.norm not in (EUCLIDEAN, MANHATTAN):
        problems.append(f"{tag}: unknown norm {spec.norm!r}")
    if not (spec.amplitude_a > 0 and math.isfinite(spec.amplitude_a)):
        problems.append(f"{tag}: amplitude_a must be positive, got {spec.amplitude_a}")
    if not (spec.alpha > 1 and math.isfinite(spec.alpha)):
        problems.append(f"{tag}: alpha must exceed 1, got {spec.alpha}")


def _check_fading(tag: str, spec: FadingSpec, problems: list[str]) -> None:
    if isinstance(spec, Erlang):
        if not (isinstance(spec.k, int) and spec.k >= 1):
            problems.append(f"{tag}: Erlang k must be an integer >= 1, got {spec.k}")
        if not (spec.theta > 0 and math.isfinite(spec.theta)):
            problems.append(f"{tag}: Erlang theta must be positive, got {spec.theta}")
    elif isinstance(spec, LogNormal):
        if not (spec.sigma_db > 0 and math.isfinite(spec.sigma_db)):
            problems.append(f"{tag}: sigma_db must be positive, got {spec.sigma_db}")
    else:
        problems.append(f"{tag}: unknown fading spec {spec!r}")


def validate(scenario: Scenario, link: LinkSpec | None = None) -> ValidationReport:
    """Check physics invariants. Returns a report, never raises.

    Violations make a scenario unusable; warnings flag inputs that are
    legal but sit where the model is known to be strained (e.g. a
    non-line-of-sight geometry with a node almost on top of the
    intersection, where real propagation is neither of the two regimes).
    """

    violations: list[str] = []
    warnings: list[str] = []

    r = scenario.roads
    for tag, lam in (("lambda_h", r.lambda_h), ("lambda_v", r.lambda_v)):
        if not (lam >= 0 and math.isfinite(lam)):
            violations.append(f"roads: {tag} must be finite and >= 0, got {lam}")

    mac = scenario.mac
    if isinstance(mac, Aloha):
        if not (0.0 <= mac.p <= 1.0):
            violations.append(f"mac: Aloha p must lie in [0, 1], got {mac.p}")
    elif isinstance(mac, Csma):
        if not (mac.delta > 0 and math.isfinite(mac.delta)):
            violations.append(f"mac: Csma delta must be positive, got {mac.delta}")
    elif not isinstance(mac, NoMac):
        violations.append(f"mac: unknown protocol {mac!r}")

    _check_loss("loss_useful", scenario.loss_useful, violations)
    _check_loss("loss_h", scenario.loss_h, violations)
    _check_loss("loss_v", scenario.loss_v, violations)
    _check_fading("fading_useful", scenario.fading_useful, violations)
    _check_fading("fading_h", scenario.fading_h, violations)
    _check_fading("fading_v", scenario.fading_v, violations)

    if link is not None:
        if not (link.power_w > 0 and math.isfinite(link.power_w)):
            violations.append(f"link: power_w must be positive, got {link.power_w}")
        if not (link.noise_w >= 0 and math.isfinite(link.noise_w)):
            violations.append(f"link: noise_w must be >= 0, got {link.noise_w}")
        if not (link.beta > 0 and math.isfinite(link.beta)):
            violations.append(f"link: beta must be positive, got {link.beta}")
        for tag, pos in (("tx", link.tx), ("rx", link.rx)):
            if not (math.isfinite(pos.x) and math.isfinite(pos.y)):
                violations.append(f"link: {tag} position must be finite, got {pos}")

        nlos = any(spec.norm == MANHATTAN for spec in
                   (scenario.loss_useful, scenario.loss_h, scenario.loss_v))
        if nlos:
            for tag, pos in (("tx", link.tx), ("rx", link.rx)):
                if math.hypot(pos.x, pos.y) < 5.0:
                    warnings.append(
                        f"link: {tag} is {math.hypot(pos.x, pos.y):.3g} m from the "
                        "intersection (< 5 m); the street-canyon propagation model "
                        "is unreliable this close to the corner"
                    )

    return ValidationReport(tuple(violations), tuple(warnings))
