"""Closed-form oracles that only the tests use."""

import math

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
