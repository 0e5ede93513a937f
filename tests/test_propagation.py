import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from crossrx import (Aloha, DegenerateGeometry, Erlang, Exponential,
                     FitDegenerate, LogNormal, Position,
                     UnsupportedDistribution, analytic_view, erlang_fit,
                     fading_ccdf, fading_lt, path_loss, sample_fading_array)
from crossrx.numerics import derivative_n
from crossrx.propagation import fading_cdf_array

from conftest import CANYON, LOS

# frozen against 40-digit arithmetic
LT_2_066_AT_1 = 0.36289737262302224      # (1 + 0.66)^-2
CCDF_2_066_AT_1 = 0.5527671302218204     # e^(-1/0.66) (1 + 1/0.66)


def test_path_loss_los():
    assert np.isclose(path_loss(LOS, Position(0, 0), Position(100, 0)),
                      3e-5 / 100 ** 2, rtol=1e-15)


def test_path_loss_canyon_uses_l1():
    got = path_loss(CANYON, Position(0, 50), Position(60, 0))
    assert np.isclose(got, 3e-5 / 110 ** 2, rtol=1e-15)


def test_path_loss_degenerate():
    with pytest.raises(DegenerateGeometry):
        path_loss(LOS, Position(5, 0), Position(5, 0))


def test_fading_lt_frozen_value():
    lt = fading_lt(Erlang(2, 0.66))
    assert np.isclose(lt(1.0), LT_2_066_AT_1, rtol=1e-14)


def test_fading_lt_exponential():
    lt = fading_lt(Exponential())
    assert lt(0.0) == 1.0
    assert np.isclose(lt(3.0), 0.25, rtol=1e-14)


def test_fading_lt_monotone():
    lt = fading_lt(Erlang(3, 0.5))
    values = [lt(s) for s in (0.0, 0.5, 1.0, 2.0, 10.0)]
    assert values == sorted(values, reverse=True)
    assert values[0] == 1.0


def test_fading_lt_mean_via_derivative():
    # -LT'(0) is the mean k*theta
    lt = fading_lt(Erlang(2, 0.66))
    assert np.isclose(-derivative_n(lt, 0.0, 1), 1.32, rtol=1e-9)


def test_fading_ccdf_frozen_value():
    assert np.isclose(fading_ccdf(Erlang(2, 0.66), 1.0), CCDF_2_066_AT_1,
                      rtol=1e-12)


def test_fading_ccdf_exponential():
    assert np.isclose(fading_ccdf(Exponential(2.0), 3.0), math.exp(-1.5),
                      rtol=1e-14)


def test_fading_ccdf_edges():
    assert fading_ccdf(Erlang(4, 1.0), 0.0) == 1.0
    with pytest.raises(ValueError):
        fading_ccdf(Erlang(2, 1.0), -0.1)


@pytest.mark.parametrize("fading", [Exponential(0.5), Erlang(2, 0.66),
                                    Erlang(7, 0.2)])
def test_fading_cdf_array_is_one_minus_the_ccdf(fading):
    t = [0.0, 1e-300, 1e-6, 0.3, 1.0, 4.0, 40.0]
    got = fading_cdf_array(fading, np.array(t))
    want = [1.0 - fading_ccdf(fading, x) for x in t]
    assert np.allclose(got, want, rtol=1e-13, atol=1e-15)
    assert got[0] == 0.0
    far = fading_cdf_array(fading, np.array([1e300, np.inf]))
    assert far.tolist() == [1.0, 1.0]


def test_fading_cdf_array_lognormal():
    # Unit median: P(S < e^z) = Phi(z / sigma_ln). ln 0 = -inf gives 0
    # with no floating-point warning, +inf gives 1.
    sigma_ln = 3.2 * math.log(10.0) / 10.0
    z = np.array([-2.0, -0.5, 0.0, 0.7, 3.0]) * sigma_ln
    got = fading_cdf_array(LogNormal(3.2), np.exp(z))
    want = [0.5 * math.erfc(-x / (sigma_ln * math.sqrt(2.0))) for x in z]
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)
    assert fading_cdf_array(LogNormal(3.2), np.array([1.0]))[0] == 0.5
    edges = fading_cdf_array(LogNormal(3.2), np.array([0.0, np.inf]))
    assert edges.tolist() == [0.0, 1.0]


def test_fading_lt_rejects_lognormal():
    with pytest.raises(UnsupportedDistribution):
        fading_lt(LogNormal(3.2))
    with pytest.raises(UnsupportedDistribution):
        fading_ccdf(LogNormal(3.2), 1.0)


def test_fading_sample_erlang_moments():
    rng = np.random.default_rng(42)
    draws = sample_fading_array(Erlang(3, 0.5), rng, (20000,))
    assert abs(draws.mean() - 1.5) < 0.03            # 4 sigma
    assert abs(draws.var() - 0.75) < 0.06
    assert (draws > 0).all()


def test_fading_sample_lognormal_is_unit_median():
    rng = np.random.default_rng(42)
    draws = sample_fading_array(LogNormal(3.2), rng, (20000,))
    sigma_ln = 3.2 * math.log(10) / 10
    assert abs(np.log(draws).mean()) < 4 * sigma_ln / math.sqrt(20000)
    assert abs(np.log(draws).std() - sigma_ln) < 0.01


def test_sample_fading_array_matches_scalar_law():
    rng = np.random.default_rng(7)
    arr = sample_fading_array(Erlang(2, 0.66), rng, (400, 50))
    assert arr.shape == (400, 50)
    assert abs(arr.mean() - 1.32) < 0.05
    rng2 = np.random.default_rng(7)
    arr2 = sample_fading_array(LogNormal(3.2), rng2, (10,))
    assert arr2.shape == (10,) and (arr2 > 0).all()


@pytest.mark.parametrize("fading, plain", [
    (Exponential(1.3),
     lambda rng, shape: rng.standard_gamma(1.0, size=shape) * 1.3),
    (Erlang(3, 0.7),
     lambda rng, shape: rng.standard_gamma(3.0, size=shape) * 0.7),
    (LogNormal(3.2),
     lambda rng, shape: np.exp(rng.standard_normal(size=shape)
                               * (3.2 * (math.log(10.0) / 10.0)))),
])
def test_sample_fading_array_is_bitwise_the_plain_expression(fading, plain):
    # In-place scaling must not move a bit against the plain expressions
    # on identically seeded streams.
    for shape in ((300, 77), (5,)):
        got = sample_fading_array(
            fading, np.random.Generator(np.random.Philox(key=[9, 1])), shape)
        want = plain(np.random.Generator(np.random.Philox(key=[9, 1])), shape)
        assert got.shape == shape
        assert (got == want).all()


def test_exponential_sampler_has_the_bits_of_gamma_one():
    # Erlang k = 1 fading is drawn with standard_exponential, which must
    # give standard_gamma(1.0)'s values and leave the stream where it
    # leaves it.
    a = np.random.Generator(np.random.Philox(key=[9, 2]))
    b = np.random.Generator(np.random.Philox(key=[9, 2]))
    for n in (1, 77, 1 << 20):
        assert (a.standard_exponential(n) == b.standard_gamma(1.0, n)).all()
        assert (a.random(8) == b.random(8)).all()


def test_erlang_fit_reference_spread():
    fit = erlang_fit(3.2)
    assert fit.k == 2
    assert 0.60 <= fit.theta <= 0.72


def test_erlang_fit_wide_spread_gives_k1():
    fit = erlang_fit(4.5)
    assert fit.k == 1


def test_erlang_fit_narrow_spread_degenerates():
    with pytest.raises(FitDegenerate):
        erlang_fit(0.3)


def test_erlang_fit_overflowing_spread_degenerates():
    # From about 620 dB the fit's samples overflow; 400 dB still fits.
    with pytest.raises(FitDegenerate, match="overflows"):
        erlang_fit(1000.0)
    assert math.isfinite(erlang_fit(400.0).theta)


def test_erlang_fit_rejects_bad_input():
    for sigma_db in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            erlang_fit(sigma_db)


def test_erlang_fit_deterministic_default_stream():
    assert erlang_fit(3.2) == erlang_fit(3.2)


# The analytic engine's surrogates, pinned bit for bit.
@pytest.mark.parametrize("sigma_db, k, theta", [
    (4.5, 1, 1.709814198382603),
    (3.2, 2, 0.6559304507074172),
    (2.5, 3, 0.3934316173384098),
    (2.2, 4, 0.2842527338943124),
    (2.0, 5, 0.22239553919098937),
    (1.0, 19, 0.054049519428197836),
    (0.7, 39, 0.025977693369177563),
])
def test_erlang_fit_is_the_engine_surrogate(make_scenario, sigma_db, k,
                                            theta):
    fit = erlang_fit(sigma_db)
    assert fit == Erlang(k, theta)
    scen = analytic_view(make_scenario(Aloha(0.01),
                                       fading_useful=LogNormal(sigma_db),
                                       fading_v=LogNormal(sigma_db)))
    assert scen.fading_useful is fit and scen.fading_v is fit


@given(k=st.integers(min_value=1, max_value=8),
       theta=st.floats(min_value=0.05, max_value=5.0),
       s=st.floats(min_value=0.0, max_value=50.0))
@settings(max_examples=60)
@example(k=5, theta=0.0625, s=9.3177e-5)
@example(k=7, theta=1.5155597317616003, s=4.997999222368016e-07)
def test_lt_and_ccdf_stay_in_unit_interval(k, theta, s):
    f = Erlang(k, theta)
    assert 0.0 < fading_lt(f)(s) <= 1.0
    assert 0.0 <= fading_ccdf(f, s) <= 1.0
