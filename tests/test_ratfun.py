"""Exact polynomial and rational-function arithmetic, expansion, interpolation."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubepack.ratfun import (
    NonPolynomialDataError,
    PoleAtInfinityError,
    Polynomial,
    RationalFunction,
    X,
    expand,
    format_polynomial,
    interpolate,
    poly_gcd,
    ratfun,
)

from helpers import brute_poly_gcd


def _random_poly(rng, max_deg):
    return Polynomial([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(1, max_deg + 1))])


def _nonzero_poly(rng, max_deg):
    while True:
        p = _random_poly(rng, max_deg)
        if not p.is_zero():
            return p


def test_polynomial_basics():
    p = Polynomial((1, 2, 1))  # (x+1)^2
    assert p.degree == 2
    assert p(3) == 16
    assert (p - p).is_zero()
    assert (X + 1) * (X + 1) == p


def test_poly_gcd_is_monic_common_divisor():
    a = (X - 1) * (X + 2)
    b = (X - 1) * (X + 3)
    assert poly_gcd(a, b) == X - 1


def test_rational_function_cancels_common_factors():
    f = RationalFunction((X * X - 1), (X - 1))
    assert f == RationalFunction(X + 1, Polynomial((1,)))
    assert f(5) == 6


def test_rational_function_field_identities():
    rng = random.Random(2)
    for _ in range(30):
        f = RationalFunction(_random_poly(rng, 3), _nonzero_poly(rng, 3))
        g = RationalFunction(_random_poly(rng, 3), _nonzero_poly(rng, 3))
        assert f + g == g + f
        assert f * g == g * f
        assert f - f == ratfun(0)
        if not g.is_zero():
            assert (f / g) * g == f


_coeffs = st.one_of(st.integers(-6, 6), st.fractions(-3, 3, max_denominator=4))
_polys = st.lists(_coeffs, max_size=4).map(Polynomial)
_nonzero_polys = _polys.filter(lambda p: not p.is_zero())
_points = st.fractions(-7, 7, max_denominator=5)


def _assert_normal(f):
    assert all(type(c) is int for c in f.num + f.den)
    assert f.den and f.den[-1] > 0
    assert gcd(*f.num, *f.den) == 1
    assert brute_poly_gcd(Polynomial(f.num), Polynomial(f.den)).degree == 0


@settings(max_examples=200, deadline=None)
@given(_polys, _nonzero_polys, _polys, _nonzero_polys, _points)
def test_arithmetic_commutes_with_evaluation(p, q, r, s, x):
    assume(q(x) != 0 and s(x) != 0)
    f, g = RationalFunction(p, q), RationalFunction(r, s)
    u, v = p(x) / q(x), r(x) / s(x)  # the Fraction oracle
    assert f(x) == u
    for h, want in ((f + g, u + v), (f - g, u - v), (f * g, u * v), (-f, -u)):
        _assert_normal(h)
        assert h(x) == want
    if not g.is_zero():
        assume(v != 0)
        _assert_normal(f / g)
        assert (f / g)(x) == u / v
        assert (2 / g)(x) == 2 / v


@settings(max_examples=100, deadline=None)
@given(_polys, _nonzero_polys, st.integers(-3, 3), _points)
def test_power_commutes_with_evaluation(p, q, k, x):
    f = RationalFunction(p, q)
    assume(q(x) != 0 and (k >= 0 or f(x) != 0))
    _assert_normal(f ** k)
    assert (f ** k)(x) == (p(x) / q(x)) ** k


@settings(max_examples=200, deadline=None)
@given(_polys, _nonzero_polys, _nonzero_polys, st.fractions(-3, 3, max_denominator=4))
def test_equal_values_give_equal_objects(p, q, h, c):
    assume(c != 0)
    f = RationalFunction(p, q)
    g = RationalFunction(p * h, q * h)
    assert g == f and hash(g) == hash(f)
    assert RationalFunction(p.scale(c), q.scale(c)) == f
    fh, gh = RationalFunction(p * h), RationalFunction(q * h)
    assert fh / gh == f and hash(fh / gh) == hash(f)


@settings(max_examples=200, deadline=None)
@given(_polys, _nonzero_polys)
def test_reduced_form_and_order_at_infinity(p, q):
    f = RationalFunction(p, q)
    _assert_normal(f)
    if p.is_zero():
        assert f.is_zero() and f.den == (1,)
        return
    g = brute_poly_gcd(p, q)
    assert len(f.num) - 1 == p.degree - g.degree
    assert len(f.den) - 1 == q.degree - g.degree
    assert f.order_at_infinity() == q.degree - p.degree


@settings(max_examples=200, deadline=None)
@given(_polys, _polys, _polys)
def test_poly_gcd_matches_euclid(a, b, c):
    assert poly_gcd(a * c, b * c) == brute_poly_gcd(a * c, b * c)


def test_division_by_zero_function_raises():
    with pytest.raises(ZeroDivisionError):
        ratfun(1) / ratfun(0)


def test_expand_matches_known_series():
    # 1 + 2/(N+1) = 1 + 2x - 4x^2 + 8x^3 - 16x^4 + ... with x = 1/(N-1)
    f = 1 + RationalFunction(Polynomial((2,)), X + 1)
    s = expand(f, 4)
    assert s.coeffs == (1, 2, -4, 8, -16)


def test_expand_constant_and_zero():
    assert expand(ratfun(3), 2).coeffs == (3, 0, 0)
    assert expand(ratfun(0), 2).coeffs == (0, 0, 0)


def test_expand_pole_at_infinity_raises():
    with pytest.raises(PoleAtInfinityError):
        expand(RationalFunction(X * X, X + 1), 3)


def test_expand_residual_vanishes_to_truncation_order():
    # subtracting the partial sum in 1/(N-1) must kill all terms through x^K
    rng = random.Random(3)
    K = 6
    for _ in range(20):
        num = _random_poly(rng, 3)
        den = _random_poly(rng, 3) + Polynomial([0] * 4 + [1])
        f = RationalFunction(num, den)
        s = expand(f, K)
        g = f
        for k, a in enumerate(s.coeffs):
            g = g - RationalFunction(Polynomial((a,)), (X - 1) ** k if k else Polynomial((1,)))
        assert expand(g, K).coeffs == (0,) * (K + 1)


def test_interpolate_linear_and_quadratic():
    assert interpolate([(1, 2), (2, 4), (3, 6)], 1) == X.scale(2)
    c2 = interpolate([(1, -4), (2, 0), (3, 12)], 2)
    assert c2 == Polynomial((0, -8, 4))
    assert format_polynomial(c2) == "4n^2-8n"


def test_interpolate_checks_extra_points():
    with pytest.raises(NonPolynomialDataError):
        interpolate([(1, 1), (2, 2), (3, 3), (4, 5)], 2)
    with pytest.raises(ValueError):
        interpolate([(1, 1), (2, 2)], 2)
    with pytest.raises(NonPolynomialDataError):
        interpolate([(1, 1), (1, 2), (2, 2)], 1)


def test_interpolate_round_trips_random_polynomials():
    rng = random.Random(4)
    for _ in range(20):
        p = _random_poly(rng, 4)
        deg = max(p.degree, 0)
        pts = [(x, p(x)) for x in range(deg + 3)]
        assert interpolate(pts, deg) == p


def test_polynomial_formatting():
    assert format_polynomial(Polynomial((0, -8, 4))) == "4n^2-8n"
    assert format_polynomial(Polynomial((1,))) == "1"
    assert format_polynomial(Polynomial(())) == "0"
    assert format_polynomial(Polynomial((0, 1))) == "n"
    assert format_polynomial(Polynomial((Fraction(1, 2), Fraction(1, 3)))) == "(2n+3)/6"
    assert format_polynomial(Polynomial((-1, 0, 1)), var="N") == "N^2-1"
