"""Exact univariate polynomials and truncated power series.

Polynomials (the interpolation results) carry Fraction coefficients and run
on the coefficient-tuple helpers _zadd, _zmul and _horner.  A Series is a
power series in x = 1/(N-1), the expansion parameter of the
expected-cube-count asymptotics, truncated after x^K: the cube-space sweep
carries every probability as one, and its sums and products are exact
through order K.  A Series holds integer numerators over one common
denominator in lowest terms, so the sweep's arithmetic runs on ints, and
Fractions are built only when its coeffs are read.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


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


class Series:
    """Truncated power series a_0 + a_1 x + ... + a_K x^K with x = 1/(N-1).

    order is K.  Sums and products drop every term beyond x^K, so they are
    exact through order K; an int or a Fraction multiplies coefficient-wise.

    The coefficients are stored as integer numerators num over one positive
    common denominator den, in lowest terms: den and the numerators have no
    common factor, and the zero series has den 1.  That form is unique, so
    equality and hashing compare (num, den, order) tuples and still compare
    values.  Each operation runs on integers and ends with one gcd.  coeffs
    builds the Fraction coefficients on demand.
    """

    __slots__ = ("num", "den", "order")

    def __init__(self, coeffs, order):
        coeffs = tuple(coeffs)
        if len(coeffs) != order + 1:
            raise ValueError("series needs exactly order+1 coefficients")
        if all(isinstance(c, int) for c in coeffs):
            num, den = coeffs, 1
        else:
            fracs = [Fraction(c) for c in coeffs]
            den = lcm(*(f.denominator for f in fracs))
            num = tuple(f.numerator * (den // f.denominator) for f in fracs)
        self.num, self.den, self.order = num, den, order

    @classmethod
    def _reduced(cls, num, den, order):
        """The series num/den; den is nonzero, num has order+1 entries."""
        g = gcd(den, *num)
        if den < 0:
            g = -g
        out = object.__new__(cls)
        out.num = num if g == 1 else tuple(a // g for a in num)
        out.den, out.order = den // g, order
        return out

    @property
    def coeffs(self):
        return tuple(Fraction(a, self.den) for a in self.num)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (self.num, self.den, self.order) == (other.num, other.den, other.order)

    def __hash__(self):
        return hash((self.num, self.den, self.order))

    def __repr__(self):
        return f"Series({self.coeffs!r}, {self.order})"

    def _same_order(self, other):
        if other.order != self.order:
            raise ValueError(f"series orders differ: {self.order} and {other.order}")

    def __add__(self, other):
        self._same_order(other)
        d, e = self.den, other.den
        if d == e:
            num = tuple(a + b for a, b in zip(self.num, other.num))
        else:
            num = tuple(a * e + b * d for a, b in zip(self.num, other.num))
            d *= e
        return Series._reduced(num, d, self.order)

    def __mul__(self, other):
        if isinstance(other, Series):
            self._same_order(other)
            return Series._reduced(_zmul(self.num, other.num, self.order + 1),
                                   self.den * other.den, self.order)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        c = other.numerator
        return Series._reduced(tuple(a * c for a in self.num),
                               self.den * other.denominator, self.order)

    @property
    def valuation(self):
        """The power of the first nonzero term: the order to which the
        function it expands vanishes as N grows."""
        for k, a in enumerate(self.num):
            if a:
                return k
        raise ValueError("the zero series has no valuation")

    def shift(self, k):
        """x^k times the series, for k >= 0."""
        if not k:
            return self
        return Series._reduced(((0,) * k + self.num)[: self.order + 1],
                               self.den, self.order)

    def inverse(self):
        """1/series through order K, on integers.

        With the series A/D, C_0 = 1 and C_k = -sum_{i=1..k} A_i A_0^(i-1)
        C_(k-i) give 1/A = sum_k C_k x^k / A_0^(k+1), so the inverse has
        numerators D C_k A_0^(K-k) over A_0^(K+1).

        Raises:
            ZeroDivisionError: if the constant term is zero.
        """
        a, order = self.num, self.order
        if not a[0]:
            raise ZeroDivisionError("a series without constant term has no inverse")
        powers = [1]
        for _ in range(order + 1):
            powers.append(powers[-1] * a[0])
        c = [1]
        for k in range(1, order + 1):
            c.append(-sum(a[i] * powers[i - 1] * c[k - i] for i in range(1, k + 1)))
        return Series._reduced(
            tuple(self.den * ck * powers[order - k] for k, ck in enumerate(c)),
            powers[order + 1], order)


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


def format_polynomial(poly):
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
            body = f"{head}n" + (f"^{power}" if power > 1 else "")
        sign = "-" if c < 0 else ("+" if parts else "")
        parts.append(sign + body)
    text = "".join(parts)
    return f"({text})/{denom}" if denom != 1 else text
