"""Exact univariate polynomials and truncated power series.

Polynomials (the interpolation results) carry Fraction coefficients and run
on the coefficient-tuple helpers _zadd, _zmul and _horner.  A Series is a
power series in x = 1/(N-1), the expansion parameter of the
expected-cube-count asymptotics, truncated after x^K: the cube-space sweep
carries every probability as one, and its sums and products are exact
through order K.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm


class NonPolynomialDataError(ValueError):
    """Interpolation points inconsistent with any polynomial of the degree."""


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class Polynomial:
    """Dense Fraction coefficient tuple, constant term first, no trailing zeros."""

    coeffs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(Fraction(c) for c in self.coeffs))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        return Polynomial(_zadd(self.coeffs, other.coeffs))

    def __mul__(self, other):
        return Polynomial(_zmul(self.coeffs, other.coeffs))

    def scale(self, c):
        return Polynomial(tuple(Fraction(c) * a for a in self.coeffs))

    def __call__(self, x):
        return _horner(self.coeffs, x)


# Polynomials as coefficient tuples, constant term first, over any
# coefficient ring.

def _zadd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _zmul(a, b, size=None):
    """The product a b, truncated to its first size coefficients if given."""
    if size is None:
        size = len(a) + len(b) - 1
    out = [0] * size
    for i, x in enumerate(a[:size]):
        if x:
            for j, y in enumerate(b[:size - i]):
                out[i + j] += x * y
    return tuple(out)


def _horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@dataclass(frozen=True)
class Series:
    """Truncated power series a_0 + a_1 x + ... + a_K x^K with x = 1/(N-1).

    order is K.  Sums and products drop every term beyond x^K, so they are
    exact through order K; a number multiplies coefficient-wise.
    """

    coeffs: tuple
    order: int

    def __post_init__(self):
        coeffs = tuple(Fraction(c) for c in self.coeffs)
        if len(coeffs) != self.order + 1:
            raise ValueError("series needs exactly order+1 coefficients")
        object.__setattr__(self, "coeffs", coeffs)

    def _same_order(self, other):
        if other.order != self.order:
            raise ValueError(f"series orders differ: {self.order} and {other.order}")

    def __add__(self, other):
        self._same_order(other)
        return Series(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)), self.order)

    def __mul__(self, other):
        if not isinstance(other, Series):
            return Series(tuple(c * other for c in self.coeffs), self.order)
        self._same_order(other)
        return Series(_zmul(self.coeffs, other.coeffs, self.order + 1), self.order)

    @property
    def valuation(self):
        """The power of the first nonzero term: the order to which the
        function it expands vanishes as N grows."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        raise ValueError("the zero series has no valuation")

    def shift(self, k):
        """x^k times the series, for k >= 0."""
        return Series(((0,) * k + self.coeffs)[: self.order + 1], self.order)

    def inverse(self):
        """1/series through order K, by one long division.

        Raises:
            ZeroDivisionError: if the constant term is zero.
        """
        a = self.coeffs
        if not a[0]:
            raise ZeroDivisionError("a series without constant term has no inverse")
        inv = []
        for k in range(self.order + 1):
            acc = Fraction(k == 0)
            for i in range(1, k + 1):
                acc -= a[i] * inv[k - i]
            inv.append(acc / a[0])
        return Series(tuple(inv), self.order)


def interpolate(points, degree):
    """Exact polynomial interpolation with an overdetermination check.

    Args:
        points: (x, value) pairs; at least degree+1 distinct x values.
        degree: target degree bound k.

    Returns:
        The unique Polynomial of degree <= k through the first k+1 points,
        verified against every remaining point.

    Raises:
        NonPolynomialDataError: if the extra points are inconsistent.
    """
    seen = {}
    for x, y in points:
        x, y = Fraction(x), Fraction(y)
        if x in seen and seen[x] != y:
            raise NonPolynomialDataError(f"conflicting values at x = {x}")
        seen[x] = y
    if len(seen) < degree + 1:
        raise ValueError(f"need at least {degree + 1} distinct points, got {len(seen)}")
    xs = sorted(seen)
    base, rest = xs[: degree + 1], xs[degree + 1:]
    poly = Polynomial()
    for xi in base:
        term = Polynomial((seen[xi],))
        for xj in base:
            if xj != xi:
                term = term * Polynomial((-xj, 1)).scale(Fraction(1, 1) / (xi - xj))
        poly = poly + term
    for xj in rest:
        if poly(xj) != seen[xj]:
            raise NonPolynomialDataError(f"degree-{degree} fit misses the point at x = {xj}")
    return poly


def format_polynomial(poly, var="n"):
    """Render like 4n^2-8n; fractional coefficients factor out as (...)/d."""
    if poly.is_zero():
        return "0"
    denom = lcm(*(c.denominator for c in poly.coeffs))
    shown = poly.scale(denom) if denom != 1 else poly
    parts = []
    for power in range(shown.degree, -1, -1):
        c = shown.coeffs[power]
        if c == 0:
            continue
        mag = abs(c)
        if power == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else str(mag)
            body = f"{head}{var}" + (f"^{power}" if power > 1 else "")
        sign = "-" if c < 0 else ("+" if parts else "")
        parts.append(sign + body)
    text = "".join(parts)
    return f"({text})/{denom}" if denom != 1 else text
