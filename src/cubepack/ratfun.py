"""Exact univariate polynomials, rational functions, and truncated series.

One set of coefficient-tuple helpers does the arithmetic: Polynomials
(the interpolation results) run it on Fraction coefficients, rational
functions on integer ones.  A rational function's numerator and
denominator are int tuples kept coprime in Z[x] with a positive leading
denominator coefficient, and their gcds come from primitive remainder
sequences (Collins 1967), so the sweep's probability arithmetic never
touches a Fraction.  A Series holds the coefficients that expand returns,
in the variable x = 1/(N-1), the expansion parameter of the
expected-cube-count asymptotics.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


class PoleAtInfinityError(ArithmeticError):
    """Series expansion requested for a function unbounded as N grows."""


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

    def leading(self):
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __add__(self, other):
        return Polynomial(_zadd(self.coeffs, _as_poly(other).coeffs))

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __mul__(self, other):
        return Polynomial(_zmul(self.coeffs, _as_poly(other).coeffs))

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return _as_poly(other) - self

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative polynomial power")
        return Polynomial(_zpow(self.coeffs, k))

    def scale(self, c):
        return Polynomial(tuple(Fraction(c) * a for a in self.coeffs))

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(1 / self.leading())

    def __call__(self, x):
        return _horner(self.coeffs, x)


def _as_poly(v):
    if isinstance(v, Polynomial):
        return v
    return Polynomial((Fraction(v),))


X = Polynomial((0, 1))


# Test-only: the property tests check the integer gcd (_zgcd) through it.
def poly_gcd(a, b):
    """Monic gcd of two Polynomials, computed on their primitive parts in Z[x]."""
    if a.is_zero() or b.is_zero():
        return (a + b).monic()
    return Polynomial(_zgcd(*_int_coeffs(a.coeffs, b.coeffs))).monic()


# Polynomials as coefficient tuples, constant term first, no trailing zeros.
# _zadd, _zmul, _zpow and _horner work over any coefficient ring (the
# Polynomial class runs them on Fractions); the rest assume Z[x].

def _int_coeffs(*polys):
    """Clear the denominators of Fraction coefficient tuples by one common factor."""
    scale = lcm(*(c.denominator for p in polys for c in p))
    return [tuple(c.numerator * (scale // c.denominator) for c in p) for p in polys]


def _zadd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _zmul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _zpow(a, k):
    out = (1,)
    for _ in range(k):
        out = _zmul(out, a)
    return out


def _horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _zprimitive(a):
    """Primitive part of a nonzero a, with a positive leading coefficient."""
    c = gcd(*a)
    if a[-1] < 0:
        c = -c
    return a if c == 1 else tuple(x // c for x in a)


def _zrem(a, b):
    """Primitive part of a scalar multiple of the remainder of a by b in Q[x].

    Each step scales the running remainder by lc(b)/g and subtracts
    (top/g) x^k b, with g = gcd(top, lc(b)): a sparse pseudo-remainder.
    """
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(r) > db:
        top = r[-1]
        g = gcd(top, lb)
        u, v = lb // g, top // g
        if u != 1:
            r = [u * x for x in r]
        k = len(r) - 1 - db
        for i in range(db):
            r[k + i] -= v * b[i]
        r.pop()
        while r and not r[-1]:
            r.pop()
    return _zprimitive(r) if r else ()


def _zgcd(a, b):
    """Primitive gcd of two nonzero polynomials: a primitive remainder sequence."""
    if len(a) < len(b):
        a, b = b, a
    a, b = _zprimitive(a), _zprimitive(b)
    while len(b) > 1:
        a, b = b, _zrem(a, b)
        if not b:
            return a
    return (1,)


def _zquo(a, b):
    """Quotient of a by b in Z[x], where b is primitive and divides a."""
    if b == (1,):
        return a
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + db] // lb
        q[k] = c
        if c:
            for i in range(db):
                r[k + i] -= c * b[i]
    return tuple(q)


def _content_free(num, den):
    """Divide out the joint content of num and den, coprime in Q[x]; make lc(den) > 0."""
    c = gcd(*num, *den)
    if den[-1] < 0:
        c = -c
    if c != 1:
        num = tuple(x // c for x in num)
        den = tuple(x // c for x in den)
    return _make(num, den)


def _reduced(num, den):
    """The normal form of num/den, for int tuples with den nonzero."""
    if not num:
        return _ZERO
    g = _zgcd(num, den)
    return _content_free(_zquo(num, g), _zquo(den, g))


@dataclass(frozen=True, slots=True)
class RationalFunction:
    """Quotient num/den of integer polynomials in one unique normal form.

    num and den are int coefficient tuples, constant term first, coprime in
    Z[x] (no common polynomial factor and no common integer content), with
    den's leading coefficient positive; zero is ((), (1,)).  The form is
    unique, so equality and hashing compare values.  The constructor takes
    Polynomials or numbers.
    """

    num: tuple = 0
    den: tuple = 1

    def __post_init__(self):
        num, den = _int_coeffs(_as_poly(self.num).coeffs, _as_poly(self.den).coeffs)
        if not den:
            raise ZeroDivisionError("zero denominator")
        f = _reduced(num, den)
        object.__setattr__(self, "num", f.num)
        object.__setattr__(self, "den", f.den)

    def is_zero(self):
        return not self.num

    def __add__(self, other):
        return _add(self, _as_ratfun(other))

    def __neg__(self):
        return _make(tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        return _add(self, -_as_ratfun(other))

    def __mul__(self, other):
        return _mul(self, _as_ratfun(other))

    def __truediv__(self, other):
        return _mul(self, _inverse(_as_ratfun(other)))

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return _add(_as_ratfun(other), -self)

    def __rtruediv__(self, other):
        return _mul(_as_ratfun(other), _inverse(self))

    def __pow__(self, k):
        f = self if k >= 0 else _inverse(self)
        return _make(_zpow(f.num, abs(k)), _zpow(f.den, abs(k)))

    def __call__(self, x):
        return Fraction(_horner(self.num, x)) / _horner(self.den, x)

    def order_at_infinity(self):
        """Vanishing order as the variable grows: deg den - deg num."""
        if self.is_zero():
            raise ValueError("the zero function has no order")
        return len(self.den) - len(self.num)


def _make(num, den):
    """A RationalFunction from parts already in normal form."""
    f = object.__new__(RationalFunction)
    object.__setattr__(f, "num", num)
    object.__setattr__(f, "den", den)
    return f


_ZERO = _make((), (1,))


def _add(f, g):
    if f.is_zero():
        return g
    if g.is_zero():
        return f
    return _reduced(_zadd(_zmul(f.num, g.den), _zmul(g.num, f.den)), _zmul(f.den, g.den))


def _mul(f, g):
    """Cross-cancel a/b * c/d by gcd(a, d) and gcd(c, b); the rest is coprime."""
    if f.is_zero() or g.is_zero():
        return _ZERO
    (a, b), (c, d) = (f.num, f.den), (g.num, g.den)
    h = _zgcd(a, d)
    a, d = _zquo(a, h), _zquo(d, h)
    h = _zgcd(c, b)
    c, b = _zquo(c, h), _zquo(b, h)
    return _content_free(_zmul(a, c), _zmul(b, d))


def _inverse(f):
    if f.is_zero():
        raise ZeroDivisionError("division by the zero function")
    if f.num[-1] < 0:
        return _make(tuple(-c for c in f.den), tuple(-c for c in f.num))
    return _make(f.den, f.num)


def _as_ratfun(v):
    if isinstance(v, RationalFunction):
        return v
    if isinstance(v, int):
        return _make((v,) if v else (), (1,))
    return RationalFunction(v)


def ratfun(num, den=1):
    return RationalFunction(num, den)


@dataclass(frozen=True)
class Series:
    """Truncated expansion a_0 + a_1 x + ... + a_K x^K with x = 1/(N-1)."""

    coeffs: tuple
    order: int

    def __post_init__(self):
        coeffs = tuple(Fraction(c) for c in self.coeffs)
        if len(coeffs) != self.order + 1:
            raise ValueError("series needs exactly order+1 coefficients")
        object.__setattr__(self, "coeffs", coeffs)


def _shifted_basis(coeffs):
    """Rewrite sum p_i N^i with N = (x+1)/x as x^(-d) * sum p_i (x+1)^i x^(d-i)."""
    d = len(coeffs) - 1
    out = [0] * (d + 1)
    for i, p in enumerate(coeffs):
        if p == 0:
            continue
        # p * (x+1)^i * x^(d-i)
        row = [0] * (d + 1)
        binom = 1
        for k in range(i + 1):
            row[(d - i) + k] += p * binom
            binom = binom * (i - k) // (k + 1)
        for k in range(d + 1):
            out[k] += row[k]
    return out


def expand(f, K):
    """Expand a rational function of N in powers of x = 1/(N-1), through x^K.

    Args:
        f: RationalFunction in the variable N.
        K: truncation order.

    Returns:
        Series with exact coefficients a_0..a_K, so that
        f(N) - sum a_k (N-1)^(-k) = O((N-1)^(-K-1)).

    Raises:
        PoleAtInfinityError: if f grows without bound as N -> infinity.
    """
    f = _as_ratfun(f)
    if f.is_zero():
        return Series((Fraction(0),) * (K + 1), K)
    dp, dq = len(f.num) - 1, len(f.den) - 1
    if dp > dq:
        raise PoleAtInfinityError("function has a pole at N = infinity")
    shift = dq - dp
    # The integer parts share one scale, which the quotient cancels.
    phat = _shifted_basis(f.num)
    qhat = _shifted_basis(f.den)
    # phat/qhat is a power series with nonzero constant term; long division.
    inv = [Fraction(0)] * (K + 1)
    q0 = qhat[0]
    for k in range(K + 1):
        acc = phat[k] if k < len(phat) else Fraction(0)
        for i in range(1, k + 1):
            if i < len(qhat):
                acc -= qhat[i] * inv[k - i]
        inv[k] = Fraction(acc, q0)
    coeffs = [Fraction(0)] * (K + 1)
    for k in range(K + 1):
        if k + shift <= K:
            coeffs[k + shift] = inv[k]
    return Series(tuple(coeffs), K)


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
        term = _as_poly(seen[xi])
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
