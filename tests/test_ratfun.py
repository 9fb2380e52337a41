"""Exact polynomial arithmetic, truncated series, interpolation."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubepack.ratfun import (
    NonPolynomialDataError,
    Polynomial,
    Series,
    format_polynomial,
    interpolate,
)

X = Polynomial((0, 1))


def _random_poly(rng, max_deg):
    return Polynomial([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(1, max_deg + 1))])


def _series(poly, K):
    """The truncation of a Polynomial after x^K."""
    coeffs = poly.coeffs[: K + 1]
    return Series(coeffs + (0,) * (K + 1 - len(coeffs)), K)


def _one(K):
    return Series((1,) + (0,) * K, K)


def test_polynomial_basics():
    p = Polynomial((1, 2, 1))  # (x+1)^2
    assert p.degree == 2
    assert p(3) == 16
    assert (p + p.scale(-1)).is_zero()
    assert (X + Polynomial((1,))) * (X + Polynomial((1,))) == p


_coeffs = st.one_of(st.integers(-6, 6), st.fractions(-3, 3, max_denominator=4))
_polys = st.lists(_coeffs, max_size=5).map(Polynomial)
_orders = st.integers(0, 5)


@settings(max_examples=200, deadline=None)
@given(_polys, _polys, _orders, _coeffs)
def test_series_product_is_the_truncated_polynomial_product(p, q, K, c):
    f, g = _series(p, K), _series(q, K)
    assert f * g == _series(p * q, K)
    assert f + g == _series(p + q, K)
    assert f * c == _series(p.scale(c), K)
    for k in range(K + 1):
        assert f.shift(k) == _series(p * Polynomial((0,) * k + (1,)), K)
    if any(f.coeffs) and any(g.coeffs) and f.valuation + g.valuation <= K:
        assert (f * g).valuation == f.valuation + g.valuation


# A sweep step's denominator: coefficient k counts the kept classes k new
# parameters short of the best one; the best ones number at least one.
_denominators = st.integers(0, 5).flatmap(
    lambda K: st.tuples(st.integers(1, 9), st.lists(st.integers(0, 9), min_size=K, max_size=K)))


@settings(max_examples=200, deadline=None)
@given(_denominators)
def test_share_inversion_times_denominator_is_one(den):
    top, rest = den
    den = Series((top, *rest), len(rest))
    assert den.inverse() * den == den * den.inverse() == _one(den.order)
    assert den.inverse().valuation == 0


@settings(max_examples=100, deadline=None)
@given(st.lists(_coeffs, min_size=1, max_size=5), st.integers(0, 3))
def test_equal_values_give_equal_objects(coeffs, pad):
    exact = [Fraction(c) for c in coeffs]
    f, g = Series(coeffs, len(coeffs) - 1), Series(exact, len(coeffs) - 1)
    assert f == g and hash(f) == hash(g)
    p, q = Polynomial(coeffs + [0] * pad), Polynomial(exact)
    assert p == q and hash(p) == hash(q)


# A plain Fraction-tuple reference for the integer-numerator Series.

def _ref_mul(a, b):
    return tuple(sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0))
                 for k in range(len(a)))


def _ref_inverse(a):
    inv = []
    for k in range(len(a)):
        acc = Fraction(k == 0) - sum((a[i] * inv[k - i] for i in range(1, k + 1)), Fraction(0))
        inv.append(acc / a[0])
    return tuple(inv)


def _lowest_terms(f):
    return f.den > 0 and gcd(f.den, *f.num) == 1


_fracs = st.fractions(-20, 20, max_denominator=12)
_pairs = st.integers(0, 5).flatmap(lambda K: st.tuples(
    st.lists(_fracs, min_size=K + 1, max_size=K + 1),
    st.lists(_fracs, min_size=K + 1, max_size=K + 1)))


@settings(max_examples=300, deadline=None)
@given(_pairs, st.integers(-7, 7), _fracs, st.integers(0, 6))
def test_integer_series_matches_the_fraction_reference(pair, n, c, k):
    a, b = (tuple(Fraction(x) for x in coeffs) for coeffs in pair)
    K = len(a) - 1
    f, g = Series(a, K), Series(b, K)
    assert f.coeffs == a
    results = [
        (f + g, tuple(x + y for x, y in zip(a, b))),
        (f * g, _ref_mul(a, b)),
        (f * n, tuple(x * n for x in a)),
        (f * c, tuple(x * c for x in a)),
        (f.shift(k), ((Fraction(0),) * k + a)[:K + 1]),
    ]
    if a[0]:
        results.append((f.inverse(), _ref_inverse(a)))
    for got, want in results:
        assert got.coeffs == want and got.order == K and _lowest_terms(got)
    if any(a):
        assert f.valuation == next(i for i, x in enumerate(a) if x)
    else:
        with pytest.raises(ValueError):
            f.valuation


@settings(max_examples=100, deadline=None)
@given(st.lists(_fracs, min_size=1, max_size=5), st.integers(1, 12))
def test_equal_series_from_different_scalings_are_equal(coeffs, m):
    # the numerators m a over m den reduce to those of a: 2/4 is 1/2
    f = Series(coeffs, len(coeffs) - 1)
    scaled = Series([m * x for x in coeffs], f.order) * Fraction(1, m)
    halves = Series([x / 2 for x in coeffs], f.order)
    for g in (scaled, halves + halves, f * 1):
        assert g == f and hash(g) == hash(f)
        assert (g.num, g.den) == (f.num, f.den)
    assert Series((Fraction(2, 4),), 0) == Series((Fraction(1, 2),), 0)
    assert Series((1, 0), 1) * Fraction(1, 2) + Series((1, 0), 1) * Fraction(1, 4) \
        == Series((Fraction(3, 4), 0), 1)


def test_inverse_of_a_negative_constant_term():
    # 1/(-2 + x) = -1/2 - x/4 - x^2/8: the denominator sign is normalized
    inv = Series((-2, 1, 0), 2).inverse()
    assert inv.coeffs == (Fraction(-1, 2), Fraction(-1, 4), Fraction(-1, 8))
    assert inv.den == 8 and inv.num == (-4, -2, -1)


def test_division_by_zero_function_raises():
    with pytest.raises(ZeroDivisionError):
        Series((0, 0, 0), 2).inverse()


def test_series_orders_must_match():
    with pytest.raises(ValueError):
        Series((1, 0), 1) + Series((1, 0, 0), 2)
    with pytest.raises(ValueError):
        Series((1, 0), 1) * Series((1, 0, 0), 2)
    with pytest.raises(ValueError):
        Series((1, 0), 2)


def test_expand_matches_known_series():
    # 1 + 2/(N+1) = 1 + 2x/(1+2x) = 1 + 2x - 4x^2 + 8x^3 - 16x^4 + ...
    # with x = 1/(N-1)
    s = _one(4) + Series((0, 2, 0, 0, 0), 4) * Series((1, 2, 0, 0, 0), 4).inverse()
    assert s.coeffs == (1, 2, -4, 8, -16)


def test_expand_constant_and_zero():
    three = Series((3, 0, 0), 2)
    assert three.valuation == 0
    assert three.inverse().coeffs == (Fraction(1, 3), 0, 0)
    assert (three * 0).coeffs == (0, 0, 0)
    with pytest.raises(ValueError):
        (three * 0).valuation


def test_expand_pole_at_infinity_raises():
    # 1/x = N - 1 grows without bound
    with pytest.raises(ZeroDivisionError):
        Series((0, 1, 0, 0), 3).inverse()


def test_expand_residual_vanishes_to_truncation_order():
    # num/den times den must give num back through x^K
    rng = random.Random(3)
    K = 6
    for _ in range(20):
        num = _random_poly(rng, 3)
        den = _random_poly(rng, 3)
        if den(0) == 0:
            den = den + Polynomial((1,))
        quotient = _series(num, K) * _series(den, K).inverse()
        assert quotient * _series(den, K) == _series(num, K)


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
