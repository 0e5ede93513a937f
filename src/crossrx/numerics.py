"""Numeric kernels shared by the analytic pipeline and its tests.

Scope is deliberately narrow: the gamma function, Pochhammer symbols, the
regularized Gauss hypergeometric for real z <= 0, adaptive integrals
over the full line, and Richardson-extrapolated derivatives up to order
4. The pipeline itself uses only the Pochhammer symbols and the
line integrals: its derivatives are exact, so ``derivative_n`` (with its
``OrderTooHigh`` cap) and ``hyp2f1_regularized`` serve as test oracles
only. Everything is deterministic, so results are bit-reproducible
across runs and safe to call from worker threads.

Gamma and the adaptive quadrature core are delegated to scipy (Lanczos
gamma, QUADPACK with its built-in compactifying transform for infinite
limits). Neither is imported with this module: ``scipy.special`` on each
``gamma_fn`` call, a test oracle, and ``scipy.integrate`` on the first
quadrature, so runs that need only closed forms load neither; the
hypergeometric series and the derivative stencils are local
because we need tight control over the z <= 0 regime and the step
schedule.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence


class PoleError(ValueError):
    """Gamma evaluated at a non-positive integer."""


class NonConvergence(ArithmeticError):
    """A series failed to converge within the iteration budget."""


class OrderTooHigh(ValueError):
    """Requested derivative order exceeds what float64 differencing supports."""


class ToleranceNotMet(ArithmeticError):
    """Quadrature could not reach the requested tolerance."""


def gamma_fn(x: float) -> float:
    """Gamma(x) for real x, rejecting the poles explicitly."""

    if x <= 0 and x == math.floor(x):
        raise PoleError(f"gamma has a pole at {x}")
    import scipy.special
    return float(scipy.special.gamma(x))


def pochhammer(x: float, n: int) -> float:
    """Rising factorial (x)_n = x (x+1) ... (x+n-1), with (x)_0 = 1."""

    if n < 0 or n != int(n):
        raise ValueError(f"pochhammer order must be a nonnegative integer, got {n}")
    out = 1.0
    for i in range(int(n)):
        out *= x + i
    return out


_HYP_MAX_TERMS = 100_000


def _hyp2f1_reg_series(a: float, b: float, c: float, z: float) -> float:
    # 2F1(a,b;c;z)/Gamma(c) by direct summation. Callers guarantee the
    # series converges reasonably fast (|z| < 1, and for the alternating
    # z < 0 case only |z| <= 0.9 reaches here).
    if c <= 0 and c == math.floor(c):
        # At c = -m the regularized function stays finite: the first m+1
        # terms vanish with 1/Gamma(c), leaving a shifted series.
        m = int(-c)
        shift = pochhammer(a, m + 1) * pochhammer(b, m + 1) / math.factorial(m + 1)
        return shift * z ** (m + 1) * _hyp2f1_reg_series(a + m + 1, b + m + 1,
                                                         m + 2.0, z)
    term = 1.0
    total = 1.0
    small_streak = 0
    for n in range(_HYP_MAX_TERMS):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
        if abs(term) <= 1e-17 * abs(total):
            small_streak += 1
            if small_streak >= 3:
                return total / gamma_fn(c)
        else:
            small_streak = 0
    raise NonConvergence(
        f"hypergeometric series did not converge for z={z} after "
        f"{_HYP_MAX_TERMS} terms"
    )


def hyp2f1_regularized(a: float, b: float, c: float, z: float) -> float:
    """Regularized Gauss hypergeometric 2F1(a,b;c;z)/Gamma(c), real z <= 0.

    Only nonpositive arguments arise in this package (they come from
    -d^alpha / (A s theta) terms), which keeps us away from the branch
    cut. For z < -0.9 the alternating series loses accuracy and slows
    down, so the Pfaff transform z -> z/(z-1) maps the argument into
    (0, 1) first.
    """

    if z > 0:
        raise ValueError(f"hyp2f1_regularized requires z <= 0, got {z}")
    if z < -0.9:
        w = z / (z - 1.0)
        return (1.0 - z) ** (-a) * _hyp2f1_reg_series(a, c - b, c, w)
    return _hyp2f1_reg_series(a, b, c, z)


# Quadrature tolerances and the subdivision budget per piece.
_REL_TOL = 1e-9
_ABS_TOL = 1e-12
_MAX_SUBDIVISIONS = 200


def integrate_line(
    f: Callable[[float], float],
    *,
    breakpoints: Sequence[float] = (),
) -> tuple[float, float]:
    """Integrate f over the full line.

    Adaptive QUADPACK quadrature; infinite limits are handled by the
    library's internal compactifying change of variable. ``breakpoints``
    lists abscissae where the integrand is non-smooth (e.g. hard-core
    exclusion edges); the domain is split there so subdivision does not
    stall hunting for the kink. Returns (value, error estimate).
    """

    import scipy.integrate  # also loads scipy.optimize, sparse and linalg

    cuts = sorted({float(b) for b in breakpoints if math.isfinite(b)})
    bounds = [-math.inf, *cuts, math.inf]

    total = 0.0
    err = 0.0
    trouble: list[str] = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        res = scipy.integrate.quad(
            f, a, b,
            epsabs=_ABS_TOL,
            epsrel=_REL_TOL,
            limit=_MAX_SUBDIVISIONS,
            full_output=1,
        )
        total += res[0]
        err += res[1]
        if len(res) > 3:
            trouble.append(str(res[3]))
    if trouble:
        raise ToleranceNotMet("; ".join(trouble))
    return total, err


# Central-difference stencils per order: (offset, weight) pairs, the
# denominator multiplier, and the power of h. All have O(h^2) leading
# error, so two Richardson stages (4,16) apply uniformly.
_STENCILS: dict[int, tuple[tuple[tuple[int, int], ...], float, int]] = {
    1: (((1, 1), (-1, -1)), 2.0, 1),
    2: (((1, 1), (0, -2), (-1, 1)), 1.0, 2),
    3: (((2, 1), (1, -2), (-1, 2), (-2, -1)), 2.0, 3),
    4: (((2, 1), (1, -4), (0, 6), (-1, -4), (-2, 1)), 1.0, 4),
}


def _central(f: Callable[[float], float], x: float, n: int, h: float) -> float:
    stencil, denom, power = _STENCILS[n]
    acc = 0.0
    for k, w in stencil:
        acc += w * f(x + k * h)
    return acc / (denom * h ** power)


# Base step per order, as a fraction of the coordinate scale. Balances
# the h^6 extrapolated truncation term against roundoff, which grows as
# eps / h^n at the finest level (h/4); the optimum sits near
# (eps 4^n)^(1/(n+6)) and these are rounded up from that.
_H_FACTOR = {1: 5e-3, 2: 2e-2, 3: 5e-2, 4: 8e-2}


def derivative_n(f: Callable[[float], float], x: float, n: int) -> float:
    """n-th derivative of f at x by Richardson-extrapolated differences.

    Step schedule h, h/2, h/4 with h proportional to max(1, |x|); the two
    extrapolation stages cancel the h^2 and h^4 error terms. Relative
    accuracy is targeted at 1e-6 on inputs whose curvature scale is
    comparable to |x|; n = 3 and 4 are supported but inherently rougher
    (subtractive cancellation grows as h^-n), and orders above 4 are
    rejected rather than returned wrong.
    """

    if n > 4:
        raise OrderTooHigh(f"derivative order {n} > 4: float64 differencing "
                           "cannot deliver meaningful accuracy")
    if n < 1 or n != int(n):
        raise ValueError(f"derivative order must be an integer >= 1, got {n}")

    h = _H_FACTOR[n] * max(1.0, abs(x))
    d1 = _central(f, x, n, h)
    d2 = _central(f, x, n, h / 2.0)
    d3 = _central(f, x, n, h / 4.0)
    r1 = (4.0 * d2 - d1) / 3.0
    r2 = (4.0 * d3 - d2) / 3.0
    return (16.0 * r2 - r1) / 15.0
