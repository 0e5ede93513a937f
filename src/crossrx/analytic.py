"""Reception probability and throughput for the tagged link.

The pipeline, for a receiver on the H road: condition on the tagged
transmitter being active, write the SINR success event through the
fading CCDF, and reduce everything to the Laplace transforms of the two
roads' interference evaluated (and differentiated) at zeta = beta~ /
theta_0. :func:`reception_probability` is the one entry point; it asks
:func:`road_lt` for each road's transform. Closed forms exist under Aloha
for Erlang interferers on the receiver's road, for the line-of-sight
exponential V road at alpha = 2 and for the street-canyon
(Manhattan-loss) V road; the adaptive-quadrature transform
:func:`lt_interference_generic` covers every remaining configuration and
doubles as the oracle the closed forms are tested against.

The transforms need Erlang fading. Log-normal shadowing is replaced by
its Erlang surrogate (:func:`analytic_view`, fitted once per spread on a
fixed stream) before evaluation; only the Monte Carlo engine samples the
log-normal law itself.

Derivative conventions used throughout (S_0 the useful fading, I_R the
road-R interference, m = i - j):

    C(j)    = sum_n binom(j,n) N~^(j-n) (-1)^n L_H^(n)(zeta)
            = E[(N~ + I_H)^j exp(-zeta I_H)]
    D(i,j)  = (-1)^m L_V^(m)(zeta) = E[I_V^m exp(-zeta I_V)]
    P       = exp(-zeta N~) sum_i sum_j binom(i,j) zeta^i / i! C(j) D(i,j)

Reception probabilities lie in [0, 1].
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .mac import access_probability, aloha_intensity, csma_intensity
from .model import (EUCLIDEAN, MANHATTAN, Aloha, Csma, Erlang, LinkSpec,
                    LogNormal, NoMac, Scenario)
from .numerics import (OrderTooHigh, QuadratureSettings, derivative_n,
                       gamma_fn, hyp2f1_regularized, integrate_line,
                       pochhammer)
from .propagation import erlang_fit, fading_lt, path_loss


class WrongScenario(TypeError):
    """Scenario has no interferer model the transform pipeline covers."""


@dataclass(frozen=True)
class EvalContext:
    """The three recurring scalars of the reception pipeline.

    tilde_beta = beta / l(tx, rx) is the threshold renormalized by the
    useful link's path gain; tilde_n = N / P; zeta = tilde_beta / theta_0
    (defined when the useful fading is Erlang).
    """

    tilde_beta: float
    tilde_n: float
    zeta: Optional[float] = None


@dataclass(frozen=True)
class InterferenceLT:
    """Laplace transform of one road's interference at the receiver.

    ``provenance`` records whether values come from a closed form or from
    quadrature; ``derivative`` routes to the best available evaluation:
    an exact formula when one is attached, Richardson differencing
    otherwise.
    """

    fn: Callable[[float], float]
    road: str
    provenance: str  # "closed-form" | "quadrature"
    d1: Optional[Callable[[float], float]] = None
    dn: Optional[Callable[[float, int], float]] = None

    def __call__(self, s: float) -> float:
        return self.fn(s)

    def derivative(self, s: float, n: int) -> float:
        if n == 0:
            return self.fn(s)
        if self.dn is not None:
            return self.dn(s, n)
        if n == 1 and self.d1 is not None:
            return self.d1(s)
        return derivative_n(self.fn, s, n)


def _h_coefficient(p: float, lam: float, amplitude: float, alpha: float,
                   k: int, theta: float) -> float:
    """Coefficient K of L_H(s) = exp(-K s^(1/alpha)) for an on-road rx.

    Comes from the binomial expansion of 1 - (1 + b r^-alpha)^-k
    integrated over the road; for k = 1 it collapses to the familiar
    2 p lam (A theta)^(1/alpha) (pi/alpha) csc(pi/alpha).
    """

    total = 0.0
    for q in range(k):
        total += (math.comb(k, q) * gamma_fn(q + 1.0 / alpha)
                  * gamma_fn(k - q - 1.0 / alpha))
    total /= gamma_fn(float(k)) * alpha
    return 2.0 * p * lam * (amplitude * theta) ** (1.0 / alpha) * total


def eval_context(scenario: Scenario, link: LinkSpec) -> EvalContext:
    l_useful = path_loss(scenario.loss_useful, link.tx, link.rx)
    tilde_beta = link.beta / l_useful
    tilde_n = link.noise_w / link.power_w
    zeta = None
    if isinstance(scenario.fading_useful, Erlang):
        zeta = tilde_beta / scenario.fading_useful.theta
    return EvalContext(tilde_beta=tilde_beta, tilde_n=tilde_n, zeta=zeta)


def lt_h_sqrt_derivative(kappa: float, zeta: float, n: int) -> float:
    """Exact n-th derivative of zeta -> exp(-kappa sqrt(zeta)), any n >= 0.

    Closed Pochhammer double sum; valid only for the alpha = 2 square-root
    form. Also the reference the numeric differentiator is checked
    against.
    """

    if n < 0 or n != int(n):
        raise ValueError(f"derivative order must be an integer >= 0, got {n}")
    root = math.sqrt(zeta)
    base = math.exp(-kappa * root)
    if n == 0:
        return base
    total = 0.0
    for l in range(n + 1):
        for m in range(l + 1):
            total += ((-1.0) ** m * (-kappa * root) ** l
                      * pochhammer((2.0 - m + l - 2.0 * n) / 2.0, n)
                      / (math.factorial(m) * math.factorial(l - m)))
    return base * zeta ** (-n) * total


def _urban_v_parts(p: float, lam: float, amplitude: float, alpha: float,
                   k: int, theta: float, d: float):
    """G(s) = -ln L_V(s) and G'(s) for the street-canyon V road.

    Splitting the Erlang tail binomially and integrating each
    (t^alpha + b)^-k piece over the road beyond the corner gives, with
    b = A s theta and per binomial index q:

        G(s) = 2 p lam sum_q binom(k,q) Gamma(q+1/alpha)/alpha *
               [ b^(1/alpha) Gamma(k-q-1/alpha)/Gamma(k)
                 - d^(alpha q + 1) b^-q 2F1reg(k, q+1/alpha; 1+q+1/alpha; -d^alpha/b) ]

    The finite part subtracted through the regularized hypergeometric is
    the [0, d) stretch of road the corner geometry removes; at d = 0 the
    whole expression reduces to the H-road coefficient.
    """

    coeff = 2.0 * p * lam
    gk = gamma_fn(float(k))
    q_terms = []
    for q in range(k):
        c_q = math.comb(k, q) * gamma_fn(q + 1.0 / alpha) / alpha
        g1_q = gamma_fn(k - q - 1.0 / alpha) / gk
        q_terms.append((q, c_q, g1_q))
    b_prime = amplitude * theta

    def neglog(s: float) -> float:
        if s == 0.0:
            return 0.0
        b = amplitude * s * theta
        total = 0.0
        for q, c_q, g1_q in q_terms:
            head = b ** (1.0 / alpha) * g1_q
            tail = 0.0
            if d > 0.0:
                w = -(d ** alpha) / b
                f_q = hyp2f1_regularized(float(k), q + 1.0 / alpha,
                                         1.0 + q + 1.0 / alpha, w)
                tail = d ** (alpha * q + 1.0) * b ** (-float(q)) * f_q
            total += c_q * (head - tail)
        return coeff * total

    def neglog_prime(s: float) -> float:
        b = amplitude * s * theta
        total = 0.0
        for q, c_q, g1_q in q_terms:
            head = g1_q * b_prime * b ** (1.0 / alpha - 1.0) / alpha
            tail = 0.0
            if d > 0.0:
                w = -(d ** alpha) / b
                a1, b1, c1 = float(k), q + 1.0 / alpha, 1.0 + q + 1.0 / alpha
                f_q = hyp2f1_regularized(a1, b1, c1, w)
                fp_q = a1 * b1 * hyp2f1_regularized(a1 + 1.0, b1 + 1.0,
                                                    c1 + 1.0, w)
                w_prime = (d ** alpha) * b_prime / (b * b)
                tail = d ** (alpha * q + 1.0) * (
                    -q * b ** (-float(q) - 1.0) * b_prime * f_q
                    + b ** (-float(q)) * fp_q * w_prime
                )
            total += c_q * (head - tail)
        return coeff * total

    return neglog, neglog_prime


# --- per-road Laplace transforms --------------------------------------------

def lt_interference_generic(road: str, scenario: Scenario, link: LinkSpec,
                            s: float,
                            settings: QuadratureSettings | None = None) -> float:
    """L_{I_R}(s) by direct quadrature of the intensity-weighted exponent.

    exp(-integral of lambda_mac(z) (1 - L_S(s l(z, rx))) dz) over the
    road. Universal fallback: every closed form in this module is tested
    against it. Breakpoints mark the kinks the MAC geometry introduces so
    the adaptive subdivision starts from the right segments.
    """

    if s == 0.0:
        return 1.0
    if s < 0:
        raise ValueError(f"LT argument must be >= 0, got {s}")
    mac = scenario.mac
    if isinstance(mac, NoMac):
        return 1.0
    fading = scenario.fading_h if road == "h" else scenario.fading_v
    loss = scenario.loss_h if road == "h" else scenario.loss_v
    lt_s = fading_lt(fading)
    rx = link.rx

    cuts: list[float] = []
    if isinstance(mac, Aloha):
        if mac.p == 0.0:
            return 1.0
        intensity = aloha_intensity(road, scenario, link.tx)
    elif isinstance(mac, Csma):
        intensity = csma_intensity(road, scenario, link.tx)
        delta = mac.delta
        cuts.extend((-delta, delta))  # cross-road coupling edges
        if road == "h":
            gap = delta * delta - link.tx.y ** 2
            if gap >= 0.0:
                half = math.sqrt(gap)
                cuts.extend((link.tx.x - half, link.tx.x + half))
        else:
            gap = delta * delta - link.tx.x ** 2
            if gap >= 0.0:
                half = math.sqrt(gap)
                cuts.extend((link.tx.y - half, link.tx.y + half))
    else:
        raise WrongScenario(f"no interferer intensity defined for {mac!r}")

    if road == "h":
        cuts.append(rx.x)  # distance kink at the receiver

        def dist(z: float) -> float:
            return abs(z - rx.x)
    else:
        cuts.append(0.0)
        if loss.norm == EUCLIDEAN:
            def dist(z: float) -> float:
                return math.hypot(rx.x, z)
        else:
            def dist(z: float) -> float:
                return abs(rx.x) + abs(z)

    a_amp, alpha = loss.amplitude_a, loss.alpha

    def integrand(z: float) -> float:
        lam = intensity(z)
        if lam == 0.0:
            return 0.0
        r = dist(z)
        if r == 0.0:
            return lam  # s*l -> inf, L_S -> 0
        return lam * (1.0 - lt_s(s * a_amp * r ** (-alpha)))

    value, _err = integrate_line(integrand, "full", breakpoints=cuts,
                                 settings=settings)
    return math.exp(-value)


def _unit_lt(road: str) -> InterferenceLT:
    return InterferenceLT(fn=lambda s: 1.0, road=road, provenance="closed-form",
                          dn=lambda s, n: 1.0 if n == 0 else 0.0)


def road_lt(road: str, scenario: Scenario, link: LinkSpec) -> InterferenceLT:
    """Best available LT of road ``road``'s interference at ``link.rx``.

    A closed form when the scenario admits one, quadrature otherwise;
    ``provenance`` on the result says which. The scenario's fading must
    already be Erlang (see :func:`analytic_view`).
    """

    mac = scenario.mac
    if isinstance(mac, NoMac) or (isinstance(mac, Aloha) and mac.p == 0.0):
        return _unit_lt(road)

    fading = scenario.fading_h if road == "h" else scenario.fading_v
    loss = scenario.loss_h if road == "h" else scenario.loss_v
    lam = scenario.roads.density(road)

    if isinstance(mac, Aloha) and isinstance(fading, Erlang):
        p = mac.p
        if road == "h":
            # Interferers and receiver share the road, so both norms give
            # the same 1-D distance and one closed form covers them.
            kappa = _h_coefficient(p, lam, loss.amplitude_a, loss.alpha,
                                   fading.k, fading.theta)
            inv_alpha = 1.0 / loss.alpha

            def fn(s: float, _k: float = kappa) -> float:
                return math.exp(-_k * s ** inv_alpha)

            def d1(s: float, _k: float = kappa) -> float:
                return -_k * inv_alpha * s ** (inv_alpha - 1.0) * fn(s)

            dn = None
            if loss.alpha == 2.0:
                def dn(s: float, n: int, _k: float = kappa) -> float:
                    return lt_h_sqrt_derivative(_k, s, n)

            return InterferenceLT(fn=fn, road=road, provenance="closed-form",
                                  d1=d1, dn=dn)

        d = abs(link.rx.x)
        if loss.norm == MANHATTAN:
            neglog, neglog_prime = _urban_v_parts(p, lam, loss.amplitude_a,
                                                  loss.alpha, fading.k,
                                                  fading.theta, d)

            def fn(s: float) -> float:
                return math.exp(-neglog(s))

            def d1(s: float) -> float:
                return -neglog_prime(s) * fn(s)

            return InterferenceLT(fn=fn, road=road, provenance="closed-form",
                                  d1=d1)

        if fading.k == 1 and loss.alpha == 2.0:
            scale = loss.amplitude_a * fading.theta
            base = p * lam * math.pi

            def fn(s: float) -> float:
                if s == 0.0:
                    return 1.0  # b / sqrt(b + d^2) is 0/0 at the corner
                b = scale * s
                return math.exp(-base * b / math.sqrt(b + d * d))

            def d1(s: float) -> float:
                b = scale * s
                c_prime = scale * (0.5 * b + d * d) / (b + d * d) ** 1.5
                return -base * c_prime * fn(s)

            return InterferenceLT(fn=fn, road=road, provenance="closed-form",
                                  d1=d1)

    # Everything else: quadrature over the MAC intensity.
    def fn(s: float) -> float:
        return lt_interference_generic(road, scenario, link, s)

    return InterferenceLT(fn=fn, road=road, provenance="quadrature")


# --- log-normal surrogate ---------------------------------------------------

_FIT_SEED = 0x0E51_1A7E
_FIT_SAMPLES = 1_000_000

# Erlang surrogates for log-normal shadowing, keyed by sigma_db.  The
# fit stream is fixed so the analytic engine is deterministic and CSV
# reruns stay byte-identical.
_FIT_CACHE: dict[float, Erlang] = {}


def _surrogate(fading):
    if not isinstance(fading, LogNormal):
        return fading
    key = float(fading.sigma_db)
    if key not in _FIT_CACHE:
        rng = np.random.Generator(np.random.Philox(key=[_FIT_SEED, 0]))
        _FIT_CACHE[key] = erlang_fit(key, _FIT_SAMPLES, rng)
    return _FIT_CACHE[key]


def analytic_view(scenario: Scenario) -> Scenario:
    """Scenario with every log-normal fading replaced by its Erlang fit.

    Returns ``scenario`` itself when nothing is log-normal. The Monte
    Carlo engine always samples the configured distributions; only the
    transform pipeline needs the surrogate.
    """

    if not any(isinstance(f, LogNormal) for f in
               (scenario.fading_useful, scenario.fading_h, scenario.fading_v)):
        return scenario
    return dataclasses.replace(
        scenario,
        fading_useful=_surrogate(scenario.fading_useful),
        fading_h=_surrogate(scenario.fading_h),
        fading_v=_surrogate(scenario.fading_v),
    )


# --- reception probability ---------------------------------------------------

def reception_probability(scenario: Scenario, link: LinkSpec) -> float:
    """P(SINR >= beta) for the tagged link, given its transmitter is active.

    Log-normal fading enters through its Erlang surrogate. Each road's
    transform comes from :func:`road_lt`. An exponential useful link
    (k0 = 1) gives the product exp(-zeta N~) L_H(zeta) L_V(zeta); an
    Erlang shape k0 > 1 gives the C/D double sum of the module docstring,
    using derivatives up to order k0 - 1.
    """

    scenario = analytic_view(scenario)
    k0 = scenario.fading_useful.k
    if k0 - 1 > 4:
        raise OrderTooHigh(
            f"Erlang shape k0={k0} needs LT derivatives of order {k0 - 1}; "
            "orders above 4 are rejected (see numerics.derivative_n)")

    ctx = eval_context(scenario, link)
    zeta, tilde_n = ctx.zeta, ctx.tilde_n
    lt_h = road_lt("h", scenario, link)
    lt_v = road_lt("v", scenario, link)
    if k0 == 1:
        return math.exp(-tilde_n * zeta) * lt_h(zeta) * lt_v(zeta)

    # All terms are nonnegative (they are expectations of nonnegative
    # quantities), so the double sum is numerically benign.
    dh = [lt_h.derivative(zeta, n) for n in range(k0)]
    dv = [lt_v.derivative(zeta, n) for n in range(k0)]
    total = 0.0
    for i in range(k0):
        weight = zeta ** i / math.factorial(i)
        for j in range(i + 1):
            c_j = 0.0
            for n in range(j + 1):
                c_j += (math.comb(j, n) * tilde_n ** (j - n)
                        * (-1.0) ** n * dh[n])
            d_ij = (-1.0) ** (i - j) * dv[i - j]
            total += math.comb(i, j) * weight * c_j * d_ij
    value = math.exp(-zeta * tilde_n) * total
    return min(1.0, max(0.0, value))


def throughput(scenario: Scenario, link: LinkSpec) -> float:
    """Link throughput in bits per unit time and bandwidth:

    access probability x reception probability x log2(1 + beta)."""

    mac = scenario.mac
    if isinstance(mac, Aloha):
        p_a = mac.p
    elif isinstance(mac, Csma):
        # The contention geometry is defined on the roads only.
        p_a = access_probability(link.tx, mac.delta, scenario.roads)
    else:
        p_a = 1.0
    return p_a * reception_probability(scenario, link) * math.log2(1.0 + link.beta)
