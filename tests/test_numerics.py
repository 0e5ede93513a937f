import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossrx.numerics import (OrderTooHigh, PoleError, derivative_n,
                              gamma_fn, hyp2f1_regularized, integrate_line,
                              pochhammer)

# Reference values computed with 40-digit arithmetic and frozen here.
GAMMA_2_5 = 1.32934038817913702047
QUARTIC_TAIL = 1.11072073453959156175  # integral of 1/(1+u^4) over [0, inf)
REG_2F1 = [
    # (a, b, c, z, value)
    (2.0, 0.5, 1.5, -4.0, 0.425158803718391393149),
    (1.0, 1.0, 2.0, -1.0, 0.693147180559945309417),
    (2.0, 0.5, 1.5, -0.5, 0.867208146067385048628),
    (2.0, 1.25, 2.25, -25.0, 0.0196450239914274315167),
    (3.0, 0.75, 1.75, -0.95, 0.494676611610925509722),
    # nonpositive integer c, where the unregularized series has a pole
    (1.0, 1.0, 0.0, -0.5, -2.0 / 9.0),
    (2.0, 0.5, -1.0, -0.25, 0.0335410196624968454461),
    (1.5, 1.0, -2.0, -1.0, -0.0966747552403482943517),
]


def test_gamma_known_value():
    assert np.isclose(gamma_fn(2.5), GAMMA_2_5, rtol=1e-14)
    assert gamma_fn(1.0) == 1.0
    assert np.isclose(gamma_fn(5.0), 24.0, rtol=1e-14)


@pytest.mark.parametrize("x", [0.0, -1.0, -7.0])
def test_gamma_poles(x):
    with pytest.raises(PoleError):
        gamma_fn(x)


def test_pochhammer_values():
    assert pochhammer(3.0, 4) == 360.0
    assert pochhammer(2.5, 0) == 1.0
    assert pochhammer(-2.0, 3) == 0.0
    with pytest.raises(ValueError):
        pochhammer(1.0, -1)


@given(x=st.floats(min_value=-10, max_value=10, allow_nan=False),
       n=st.integers(min_value=0, max_value=20))
def test_pochhammer_recurrence(x, n):
    assert math.isclose(pochhammer(x, n + 1), pochhammer(x, n) * (x + n),
                        rel_tol=1e-12, abs_tol=1e-300)


@given(x=st.floats(min_value=0.1, max_value=20.0, allow_nan=False))
def test_gamma_recurrence(x):
    assert math.isclose(gamma_fn(x + 1.0), x * gamma_fn(x), rel_tol=1e-12)


@pytest.mark.parametrize("a,b,c,z,expected", REG_2F1)
def test_hyp2f1_regularized_frozen(a, b, c, z, expected):
    assert np.isclose(hyp2f1_regularized(a, b, c, z), expected, rtol=1e-12)


def test_hyp2f1_at_zero_is_reciprocal_gamma():
    for c in (0.75, 1.5, 3.25):
        assert np.isclose(hyp2f1_regularized(2.0, 0.5, c, 0.0),
                          1.0 / gamma_fn(c), rtol=1e-14)


def test_hyp2f1_rejects_positive_argument():
    with pytest.raises(ValueError):
        hyp2f1_regularized(1.0, 1.0, 2.0, 0.5)


def test_integrate_halfline():
    # The integrand is even, so the half-line value is half the line's.
    value, err = integrate_line(lambda u: 1.0 / (1.0 + u ** 4))
    assert np.isclose(value / 2, QUARTIC_TAIL, rtol=1e-10)
    assert err < 1e-8


def test_integrate_fullline_with_breakpoints():
    value, _ = integrate_line(lambda x: math.exp(-abs(x)),
                              breakpoints=(0.0,))
    assert np.isclose(value, 2.0, rtol=1e-10)


def test_integrate_gaussian():
    value, _ = integrate_line(lambda x: math.exp(-x * x))
    assert np.isclose(value, math.sqrt(math.pi), rtol=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_derivative_of_exp(n):
    assert np.isclose(derivative_n(math.exp, 1.0, n), math.e, rtol=1e-7)


def test_derivative_of_polynomial_is_exact_order():
    # x^3: d1=3x^2, d2=6x, d3=6, d4=0
    f = lambda x: x ** 3
    assert np.isclose(derivative_n(f, 2.0, 1), 12.0, rtol=1e-9)
    assert np.isclose(derivative_n(f, 2.0, 2), 12.0, rtol=1e-8)
    assert np.isclose(derivative_n(f, 2.0, 3), 6.0, rtol=1e-6)
    assert abs(derivative_n(f, 2.0, 4)) < 1e-6


def test_derivative_order_bounds():
    with pytest.raises(OrderTooHigh):
        derivative_n(math.exp, 0.0, 5)
    with pytest.raises(ValueError):
        derivative_n(math.exp, 0.0, 0)


@given(x=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
@settings(max_examples=50)
def test_derivative_matches_cos(x):
    assert np.isclose(derivative_n(math.sin, x, 1), math.cos(x),
                      rtol=1e-6, atol=1e-9)
