"""Path loss and fading: transforms, sampling, and the Erlang fit.

Fading distributions are unit-scale power gains. Erlang(k, theta) covers
the analytically tractable family (k = 1 being exponential / Rayleigh
power fading); LogNormal is sampler-only and must be approximated by
:func:`erlang_fit`, the one surrogate the analytic engine uses, before
entering any Laplace-transform pipeline.

The Erlang Laplace transform is (1 + s*theta)^(-k). The exponent is
negative: a Laplace transform of a nonnegative random variable cannot
exceed one, and the exponential special case 1/(1 + s) confirms the sign.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.special

from .model import Erlang, FadingSpec, LogNormal, PathLossSpec, Position, distance

# ln(10)/10: converts a dB-domain sigma to the sigma of ln(gain).
_DB_TO_LN = math.log(10.0) / 10.0


class DegenerateGeometry(ValueError):
    """Transmitter and receiver coincide; the loss model diverges."""


class UnsupportedDistribution(TypeError):
    """Operation needs a closed-form law that this distribution lacks."""


class FitDegenerate(RuntimeError):
    """MLE shape search terminated on the boundary of the search range."""


def path_loss(spec: PathLossSpec, tx: Position, rx: Position) -> float:
    """Mean power gain A * dist^(-alpha) under ``spec.norm``."""

    d = distance(tx, rx, spec.norm)
    if d == 0.0:
        raise DegenerateGeometry(f"tx and rx coincide at {tx}; path loss diverges")
    return spec.amplitude_a * d ** (-spec.alpha)


@dataclass(frozen=True)
class FadingLT:
    """Laplace transform s -> E[exp(-s S)] of an Erlang fading gain."""

    k: int
    theta: float

    def __call__(self, s: float) -> float:
        return (1.0 + s * self.theta) ** (-float(self.k))


def fading_lt(f: FadingSpec) -> FadingLT:
    if isinstance(f, Erlang):
        return FadingLT(k=f.k, theta=f.theta)
    raise UnsupportedDistribution(
        f"no closed-form Laplace transform for {f!r}; approximate it with "
        "erlang_fit first"
    )


def fading_ccdf(f: FadingSpec, s: float) -> float:
    """P(S > s) for an Erlang gain: e^(-s/theta) * sum_{i<k} (s/theta)^i / i!."""

    if not isinstance(f, Erlang):
        raise UnsupportedDistribution(f"no closed-form CCDF for {f!r}")
    if s < 0:
        raise ValueError(f"CCDF argument must be >= 0, got {s}")
    u = s / f.theta
    acc = 0.0
    term = 1.0
    for i in range(f.k):
        if i > 0:
            term *= u / i
        acc += term
    # exp(-u) * acc can round to just above 1 when u is tiny.
    return min(1.0, math.exp(-u) * acc)


def sample_fading_array(f: FadingSpec, rng: np.random.Generator,
                        shape: tuple[int, ...]) -> np.ndarray:
    """Fading draws of the given shape.

    Erlang uses the gamma sampler directly rather than materializing k
    exponentials per cell; the law is identical. At k = 1 it calls the
    exponential sampler, which numpy's gamma sampler calls for shape 1,
    so the values and the stream position are those of
    ``standard_gamma(1.0)``. LogNormal draws have unit median; one that
    overflows raises ``FloatingPointError``.
    """

    # Scaled in place: the same bits as the plain expressions, without a
    # second full-size array.
    if isinstance(f, Erlang):
        x = (rng.standard_exponential(size=shape) if f.k == 1
             else rng.standard_gamma(float(f.k), size=shape))
        x *= f.theta
        return x
    if isinstance(f, LogNormal):
        x = rng.standard_normal(size=shape)
        x *= f.sigma_db * _DB_TO_LN
        with np.errstate(over="raise"):
            return np.exp(x, out=x)
    raise UnsupportedDistribution(f"cannot sample {f!r}")


def fading_cdf_array(f: FadingSpec, t: np.ndarray) -> np.ndarray:
    """P(S < t) for each threshold t >= 0 (+inf allowed), the law
    :func:`sample_fading_array` draws: -expm1(-t/theta) for the
    exponential, the regularized lower incomplete gamma for Erlang k > 1,
    and Phi(ln t / sigma_ln) for unit-median log-normal, where t = 0
    gives ln t = -inf and a CDF of 0 without a floating-point warning."""

    if isinstance(f, Erlang):
        u = t / f.theta
        if f.k == 1:
            np.expm1(np.negative(u, out=u), out=u)
            return np.negative(u, out=u)
        return scipy.special.gammainc(float(f.k), u, out=u)
    if isinstance(f, LogNormal):
        with np.errstate(divide="ignore"):
            z = np.log(t)
        z /= f.sigma_db * _DB_TO_LN
        return scipy.special.ndtr(z, out=z)
    raise UnsupportedDistribution(f"no CDF for {f!r}")


# The one stream every surrogate fit draws from, so that the analytic
# engine is deterministic and CSV reruns stay byte-identical.
_FIT_SEED = 0x0E51_1A7E
_FIT_SAMPLES = 1_000_000
_K_SEARCH_MAX = 200


@functools.cache
def erlang_fit(sigma_db: float) -> Erlang:
    """The Erlang surrogate for unit-median log-normal shadowing, by
    sampled MLE; fitted once per spread and cached.

    Draws 1e6 log-normal gains from one fixed stream, then maximizes the
    Erlang log-likelihood over integer shapes k in [1, 200] with the
    scale at its conditional MLE theta = mean/k. The integer search keeps
    the result inside the family the analytic pipeline can actually use.
    This is the fit :func:`crossrx.analytic.analytic_view` substitutes and
    ``crossrx fit-erlang`` prints.

    Raises FitDegenerate if the samples' mean or mean log overflows, or
    if the best k sits at the top of the search range (the fit wants a
    shape this family cannot represent). k = 1 is a legitimate answer,
    not a degeneracy: wide dB spreads genuinely fit best as exponential.
    """

    if not (math.isfinite(sigma_db) and sigma_db > 0):
        raise ValueError(
            f"sigma_db must be finite and positive, got {sigma_db}")
    rng = np.random.Generator(np.random.Philox(key=[_FIT_SEED, 0]))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x = np.exp(rng.standard_normal(_FIT_SAMPLES) * (sigma_db * _DB_TO_LN))
        mean = float(x.mean())
        mean_log = float(np.log(x).mean())
    if not (math.isfinite(mean) and math.isfinite(mean_log)):
        raise FitDegenerate(f"sigma_db = {sigma_db} overflows the fit's samples")

    ks = np.arange(1, _K_SEARCH_MAX + 1, dtype=float)
    # Per-sample log-likelihood at theta = mean/k:
    #   (k-1) E[ln x] - k - k ln(mean/k) - ln Gamma(k)
    ll = (ks - 1.0) * mean_log - ks - ks * np.log(mean / ks) - scipy.special.gammaln(ks)
    k_best = int(np.argmax(ll)) + 1
    if k_best == _K_SEARCH_MAX:
        raise FitDegenerate(
            f"MLE shape search hit the k = {_K_SEARCH_MAX} bound for "
            f"sigma_db = {sigma_db}; the distribution is too concentrated for "
            "this family"
        )
    return Erlang(k=k_best, theta=mean / k_best)
