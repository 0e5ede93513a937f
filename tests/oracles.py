"""Closed-form oracles and references that only the tests use."""

import math

from crossrx import OutageEstimate
from crossrx.montecarlo import STDERR_FLOOR, _merged_stats
from crossrx.numerics import pochhammer


def lt_h_sqrt_derivative(kappa: float, zeta: float, n: int) -> float:
    """Exact n-th derivative of zeta -> exp(-kappa sqrt(zeta)), any n >= 0.

    Closed Pochhammer double sum; valid only for the alpha = 2 square-root
    form. A test oracle for :meth:`crossrx.analytic.InterferenceLT.derivatives`
    and for the numeric differentiator.
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


def failure_fractions(scenario, links, settings) -> list[OutageEstimate]:
    """The failure-count reference for ``simulate_outage_sweep`` on the
    same draws: per link, the fraction p of failed realizations and its
    binomial standard error sqrt(p (1 - p) / n), floored at STDERR_FLOOR
    as the engine's is."""
    estimates = []
    for n, fails, _, _ in _merged_stats([(scenario, links)], settings)[0]:
        p = fails / n
        estimates.append(OutageEstimate(
            p, max(math.sqrt(p * (1.0 - p) / n), STDERR_FLOOR)))
    return estimates
