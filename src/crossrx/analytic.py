"""Reception probability and throughput for the tagged link.

The pipeline, for a receiver on the H road: condition on the tagged
transmitter being active, write the SINR success event through the
fading CCDF, and reduce everything to the Laplace transforms of the two
roads' interference evaluated (and differentiated) at zeta = beta~ /
theta_0. :func:`reception_probability` is the one entry point; it asks
:func:`road_lt` for each road's transform.

Each transform is carried by its exponent G(s) = -ln L(s) and the exact
derivatives s^m G^(m)(s); s^n L^(n) follows from the recursion for exp(-G) (see
:meth:`InterferenceLT.derivatives`), so any derivative order is exact
and nothing is differenced. Under Aloha, closed forms cover Erlang
interferers on the receiver's road and on the street-canyon
(Manhattan-loss) V road, both through the incomplete beta function, and
the line-of-sight exponential V road at alpha = 2. Every remaining
configuration takes one adaptive quadrature per order; the m = 0
quadrature, :func:`lt_interference_generic`, doubles as the oracle the
closed forms are tested against.

The transforms need Erlang fading. :func:`analytic_view` replaces
log-normal shadowing by its Erlang surrogate,
:func:`crossrx.propagation.erlang_fit`, before evaluation; only the Monte
Carlo engine samples the log-normal law itself.

With Erlang(k0, theta_0) useful fading S_0, success S_0 >= beta~ (N~ +
I_H + I_V) (I_R the road-R interference) is the event that a Poisson
count of mean zeta (N~ + I_H + I_V) stays below k0. Given the
interference that count splits into independent parts N_0 + N_H + N_V,

    P(N_0 = a) = exp(-zeta N~) (zeta N~)^a / a!
    P(N_R = n) = E[(zeta I_R)^n exp(-zeta I_R)] / n!
               = (-zeta)^n L_R^(n)(zeta) / n!,

and P = P(N_0 + N_H + N_V <= k0 - 1) sums the first k0 terms of the
convolution of the three laws. Every term lies in [0, 1], so the sum
neither cancels nor overflows, and reception probabilities lie in
[0, 1].
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

from .mac import access_probability_at, aloha_intensity, csma_intensity
# Unused here; perfbench's tracer patches it by name.
from .mac import access_probability  # noqa: F401
from .model import (EUCLIDEAN, MANHATTAN, Aloha, Csma, Erlang, LinkSpec,
                    LogNormal, NoMac, Scenario)
# Test oracles only; perfbench's tracer patches them by name here.
from .numerics import derivative_n, hyp2f1_regularized  # noqa: F401
from .numerics import integrate_line, pochhammer
from .propagation import erlang_fit, fading_lt, path_loss


class WrongScenario(TypeError):
    """Scenario has no interferer model the transform pipeline covers."""


@dataclass(frozen=True)
class InterferenceLT:
    """Laplace transform L(s) = exp(-G(s)) of one road's interference.

    ``exponent(s, n)`` returns the exact [G(s), s G'(s), ...,
    s^n G^(n)(s)]; ``provenance`` records whether they come from a closed
    form or from quadrature. Unscaled derivatives would leave the double
    range at high orders (zeta^38 overflows at zeta ~ 1e11).
    """

    exponent: Callable[[float, int], list[float]]
    provenance: str  # "closed-form" | "quadrature"

    def __call__(self, s: float) -> float:
        return math.exp(-self.exponent(s, 0)[0])

    def derivatives(self, s: float, n: int) -> list[float]:
        """[L(s), s L'(s), ..., s^n L^(n)(s)] for any n >= 0.

        L^(i) = -sum_j binom(i-1, j) G^(j+1) L^(i-1-j), which keeps its
        form when both sides are scaled by s^i. G^(m) has the sign of
        (-1)^(m+1), so every term of (-1)^i L^(i) is nonnegative and no
        order suffers cancellation.
        """

        g = self.exponent(s, n)
        out = [math.exp(-g[0])]
        for i in range(1, n + 1):
            out.append(-sum(math.comb(i - 1, j) * g[j + 1] * out[i - 1 - j]
                            for j in range(i)))
        return out


# --- per-road exponents -----------------------------------------------------

def _power_law_exponent(p: float, lam: float, amplitude: float, alpha: float,
                        k: int, theta: float, d: float):
    """G and its derivatives for Aloha Erlang(k, theta) interferers at
    distance t = d + |u| from the receiver, u along the road.

    With c = A theta s and x = c / (c + d^alpha), integrating
    1 - (1 + c t^-alpha)^-k over t >= d by parts gives, B_x the
    unregularized incomplete beta function,

        G          = 2 p lam [c^(1/alpha) k B_x(1 - 1/alpha, k + 1/alpha)
                              - d (1 - (1 - x)^k)]
        s^m G^(m)  = (-1)^(m+1) (k)_m 2 p lam c^(1/alpha) / alpha
                     * B_x(m - 1/alpha, k + 1/alpha),

    with (k)_m the rising factorial. d = 0 is the receiver's own road
    (x = 1, complete beta functions); d = |rx.x| is the street-canyon V
    road.
    """

    inv_alpha = 1.0 / alpha
    b = k + inv_alpha
    if d > 0.0:
        # x < 1 only off the receiver's road, so only such a road loads
        # scipy.special, and it does so here rather than at start-up.
        from scipy.special import betainc

    def incomplete_beta(a: float, x: float) -> float:
        # B(a, b) by lgamma, and no betainc call at x = 1 (the receiver's
        # own road): each scalar scipy call costs about 1 us.
        complete = math.exp(math.lgamma(a) + math.lgamma(b)
                            - math.lgamma(a + b))
        return complete * float(betainc(a, b, x)) if x < 1.0 else complete

    def exponent(s: float, n: int) -> list[float]:
        c = amplitude * theta * s
        x = 1.0 if d == 0.0 else c / (c + d ** alpha)
        head = 2.0 * p * lam * c ** inv_alpha
        out = [head * k * incomplete_beta(1.0 - inv_alpha, x)
               - 2.0 * p * lam * d * (1.0 - (1.0 - x) ** k)]
        for m in range(1, n + 1):
            out.append((-1.0) ** (m + 1) * pochhammer(k, m) * head
                       * inv_alpha * incomplete_beta(m - inv_alpha, x))
        return out

    return exponent


def _los_exponent(p: float, lam: float, amplitude: float, theta: float,
                  d: float):
    """G = p lam pi b / sqrt(b + d^2), b = A theta s, and its derivatives,
    for the line-of-sight V road with exponential fading at alpha = 2.

    With u = b + d^2, G = p lam pi (u^(1/2) - d^2 u^(-1/2)), so

        s^m G^(m) = p lam pi (b/u)^m [f(1/2, m) u^(1/2)
                                      - d^2 f(-1/2, m) u^(-1/2)]

    with the falling factorial f(x, m) = x (x - 1) ... (x - m + 1). The
    two bracketed terms share one sign for m >= 1; G itself uses the
    uncancelled b / sqrt(u).
    """

    scale = amplitude * theta
    base = p * lam * math.pi

    def exponent(s: float, n: int) -> list[float]:
        b = scale * s
        u = b + d * d
        root = math.sqrt(u)
        # b / root is 0/0 at the corner when s = 0.
        out = [base * b / root if b > 0.0 else 0.0]
        upper, lower = 0.5, -0.5  # f(1/2, m) and f(-1/2, m)
        for m in range(1, n + 1):
            out.append(base * (b / u) ** m * (upper * root
                                              - d * d * lower / root))
            upper *= 0.5 - m
            lower *= -0.5 - m
        return out

    return exponent


def _quadrature_exponent(road: str, scenario: Scenario, link: LinkSpec):
    """s^m G^(m)(s) by one adaptive quadrature per order m, each over
    one closure of the scaled variable u.

    G         = integral of lambda_mac(z) (1 - L_S(s g(z))) dz,
    s^m G^(m) = integral of lambda_mac(z) (-1)^(m+1) (k)_m (s theta g)^m
                (1 + s theta g)^-(k+m) dz,

    over the road, g(z) the mean path gain from z to ``link.rx``. The
    scaled integrands are of the size of G; the quadrature's absolute
    tolerance would swamp the unscaled G^(m) ~ G / s^m. The variable is
    u = (z - center) / reach, reach the distance at which s theta g = 1:
    in z, a reach far beyond the last kink (large s) leaves the
    infinite-range rule failing to converge. Breakpoints mark the kinks
    the MAC geometry introduces.
    """

    mac = scenario.mac
    fading = scenario.fading_h if road == "h" else scenario.fading_v
    loss = scenario.loss_h if road == "h" else scenario.loss_v
    lt_s = fading_lt(fading)
    rx = link.rx

    cuts: list[float] = []
    if isinstance(mac, Aloha):
        intensity = aloha_intensity(road, scenario, link.tx)
    elif isinstance(mac, Csma):
        intensity = csma_intensity(road, scenario, link.tx)
        delta = mac.delta
        cuts.extend((-delta, delta))  # cross-road coupling edges
        # The tx kill disc's chord on this road.
        tx = link.tx
        along, perp = (tx.x, tx.y) if road == "h" else (tx.y, tx.x)
        gap = delta * delta - perp ** 2
        if gap >= 0.0:
            half = math.sqrt(gap)
            cuts.extend((along - half, along + half))
    else:
        raise WrongScenario(f"no interferer intensity defined for {mac!r}")

    center = rx.x if road == "h" else 0.0
    cuts.append(center)  # distance kink at the receiver or the corner
    if road == "h":
        def dist(z: float) -> float:
            return abs(z - rx.x)
    elif loss.norm == EUCLIDEAN:
        def dist(z: float) -> float:
            return math.hypot(rx.x, z)
    else:
        def dist(z: float) -> float:
            return abs(rx.x) + abs(z)

    a_amp, alpha = loss.amplitude_a, loss.alpha
    k, theta = lt_s.k, lt_s.theta
    neg_k = -float(k)

    def integrate(s: float, m: int) -> float:
        # One closure per quadrature, so that each node costs one call
        # here plus one to the intensity (and one to dist). The order-0
        # term inlines L_S(s g) = (1 + (s g) theta)^-k; the orders m take
        # (s theta) g. Both keep their operand order, and so their bits.
        reach = (s * theta * a_amp) ** (1.0 / alpha) or 1.0
        s_theta = s * theta
        coef = (-1.0) ** (m + 1) * pochhammer(k, m)

        def f(u: float) -> float:
            z = center + reach * u
            lam = intensity(z)
            if lam == 0.0:
                return 0.0
            r = dist(z)
            g = math.inf if r == 0.0 else a_amp * r ** (-alpha)
            if not m:
                term = 1.0 - (1.0 + s * g * theta) ** neg_k
            elif g == math.inf:
                term = 0.0
            else:
                x = s_theta * g
                term = coef * (x / (1.0 + x)) ** m * (1.0 + x) ** -k
            return reach * (lam * term)

        value, _err = integrate_line(
            f, breakpoints=[(c - center) / reach for c in cuts] + [-1.0, 1.0])
        return value

    def exponent(s: float, n: int) -> list[float]:
        # At the receiver itself (g = inf) L_S(s g) = 0, so the order-0
        # integrand is 1 and every higher one is 0.
        return [integrate(s, m) for m in range(n + 1)]

    return exponent


def _silent(mac) -> bool:
    """No interferer transmits: no MAC, or Aloha with p = 0."""
    return isinstance(mac, NoMac) or (isinstance(mac, Aloha) and mac.p == 0.0)


def lt_interference_generic(road: str, scenario: Scenario, link: LinkSpec,
                            s: float) -> float:
    """L_{I_R}(s) by direct quadrature of the intensity-weighted exponent.

    exp(-integral of lambda_mac(z) (1 - L_S(s l(z, rx))) dz) over the
    road. Universal fallback: every closed form in this module is tested
    against it.
    """

    if s == 0.0:
        return 1.0
    if s < 0:
        raise ValueError(f"LT argument must be >= 0, got {s}")
    if _silent(scenario.mac):
        return 1.0
    exponent = _quadrature_exponent(road, scenario, link)
    return math.exp(-exponent(s, 0)[0])


def road_lt(road: str, scenario: Scenario, link: LinkSpec) -> InterferenceLT:
    """Best available LT of road ``road``'s interference at ``link.rx``.

    A closed form when the scenario admits one, quadrature otherwise;
    ``provenance`` on the result says which. The scenario's fading must
    already be Erlang (see :func:`analytic_view`).
    """

    mac = scenario.mac
    if _silent(mac):
        return InterferenceLT(lambda s, n: [0.0] * (n + 1), "closed-form")

    fading = scenario.fading_h if road == "h" else scenario.fading_v
    loss = scenario.loss_h if road == "h" else scenario.loss_v
    lam = scenario.roads.density(road)

    if isinstance(mac, Aloha) and isinstance(fading, Erlang):
        # On the receiver's road both norms give the same 1-D distance.
        d = 0.0 if road == "h" else abs(link.rx.x)
        if road == "h" or loss.norm == MANHATTAN:
            return InterferenceLT(
                _power_law_exponent(mac.p, lam, loss.amplitude_a, loss.alpha,
                                    fading.k, fading.theta, d),
                "closed-form")
        if fading.k == 1 and loss.alpha == 2.0:
            return InterferenceLT(
                _los_exponent(mac.p, lam, loss.amplitude_a, fading.theta, d),
                "closed-form")

    return InterferenceLT(_quadrature_exponent(road, scenario, link),
                          "quadrature")


def analytic_view(scenario: Scenario) -> Scenario:
    """Scenario with every log-normal fading replaced by its Erlang fit,
    :func:`crossrx.propagation.erlang_fit`.

    Returns ``scenario`` itself when nothing is log-normal. The Monte
    Carlo engine always samples the configured distributions; only the
    transform pipeline needs the surrogate.
    """

    fits = {}
    for name in ("fading_useful", "fading_h", "fading_v"):
        fading = getattr(scenario, name)
        if isinstance(fading, LogNormal):
            fits[name] = erlang_fit(fading.sigma_db)
    return dataclasses.replace(scenario, **fits) if fits else scenario


# --- reception probability ---------------------------------------------------

def reception_probability(scenario: Scenario, link: LinkSpec) -> float:
    """P(SINR >= beta) for the tagged link, given its transmitter is active.

    Log-normal fading enters through its Erlang surrogate. Each road's
    transform comes from :func:`road_lt`; an Erlang useful link of shape
    k0 gives the count convolution of the module docstring, using exact
    derivatives up to order k0 - 1 (for k0 = 1 it is the product
    exp(-zeta N~) L_H(zeta) L_V(zeta)).
    """

    scenario = analytic_view(scenario)
    k0 = scenario.fading_useful.k
    gain = path_loss(scenario.loss_useful, link.tx, link.rx)
    # zeta = beta~ / theta_0 with beta~ = beta / l(tx, rx); noise = zeta N~.
    zeta = ((link.beta / gain if gain else math.inf)
            / scenario.fading_useful.theta)
    if zeta == math.inf:  # the limit: any noise or active interferer wins
        roads = scenario.roads
        silent = (_silent(scenario.mac)
                  or roads.lambda_h == roads.lambda_v == 0.0)
        return float(link.noise_w == 0.0 and silent)
    noise = zeta * (link.noise_w / link.power_w)
    law = [math.exp(-noise)]  # P(N_0 = a), then of N_0 + N_H, ...
    for a in range(1, k0):
        law.append(law[-1] * noise / a)
    for road in ("h", "v"):
        scaled = road_lt(road, scenario, link).derivatives(zeta, k0 - 1)
        road_law = [(-1.0) ** n * d / math.factorial(n)
                    for n, d in enumerate(scaled)]
        total = []
        for j in range(k0):
            acc = 0.0
            for n in range(j + 1):
                acc += law[j - n] * road_law[n]
            total.append(acc)
        law = total
    return min(1.0, max(0.0, sum(law)))


def throughput(scenario: Scenario, link: LinkSpec) -> float:
    """Link throughput in bits per unit time and bandwidth:

    access probability x reception probability x log2(1 + beta)."""

    return (access_probability_at(scenario, link.tx)
            * reception_probability(scenario, link)
            * math.log2(1.0 + link.beta))
