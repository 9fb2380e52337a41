"""Exact univariate polynomials, rational functions, and truncated series.

All probability bookkeeping runs on Fractions.  Rational functions are kept
normalized (coprime parts, monic denominator).  Series live in the variable
x = 1/(N-1), the expansion parameter of the expected-cube-count asymptotics.
"""

from dataclasses import dataclass
from fractions import Fraction


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
    """Dense coefficient tuple, constant term first, no trailing zeros."""

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
        other = _as_poly(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __mul__(self, other):
        other = _as_poly(other)
        if self.is_zero() or other.is_zero():
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return _as_poly(other) - self

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative polynomial power")
        out = ONE_POLY
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def scale(self, c):
        return Polynomial(tuple(Fraction(c) * a for a in self.coeffs))

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(1 / self.leading())

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Polynomial(), self
        quot = [Fraction(0)] * (dq + 1)
        lead = other.leading()
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] / lead
            quot[k] = c
            if c:
                for i, b in enumerate(other.coeffs):
                    rem[k + i] -= c * b
        return Polynomial(quot), Polynomial(rem)


def _as_poly(v):
    if isinstance(v, Polynomial):
        return v
    return Polynomial((Fraction(v),))


X = Polynomial((0, 1))
ONE_POLY = Polynomial((1,))


def poly_gcd(a, b):
    """Monic Euclidean gcd; tiny inputs, clarity over speed."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.monic() if not a.is_zero() else a


@dataclass(frozen=True)
class RationalFunction:
    """Quotient of polynomials, coprime, denominator monic and nonzero."""

    num: Polynomial = Polynomial()
    den: Polynomial = ONE_POLY

    def __post_init__(self):
        num, den = self.num, self.den
        if not isinstance(num, Polynomial):
            num = _as_poly(num)
        if not isinstance(den, Polynomial):
            den = _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = ONE_POLY
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
            lead = den.leading()
            if lead != 1:
                num = num.scale(1 / lead)
                den = den.scale(1 / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, other):
        other = _as_ratfun(other)
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-_as_ratfun(other))

    def __mul__(self, other):
        other = _as_ratfun(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        other = _as_ratfun(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return _as_ratfun(other) - self

    def __rtruediv__(self, other):
        return _as_ratfun(other) / self

    def __pow__(self, k):
        if k < 0:
            return RationalFunction(self.den ** -k, self.num ** -k)
        return RationalFunction(self.num ** k, self.den ** k)

    def __call__(self, x):
        return self.num(x) / self.den(x)

    def order_at_infinity(self):
        """Vanishing order as the variable grows: deg den - deg num."""
        if self.is_zero():
            raise ValueError("the zero function has no order")
        return self.den.degree - self.num.degree


def _as_ratfun(v):
    if isinstance(v, RationalFunction):
        return v
    if isinstance(v, Polynomial):
        return RationalFunction(v, ONE_POLY)
    return RationalFunction(_as_poly(v), ONE_POLY)


def ratfun(num, den=1):
    return RationalFunction(_as_poly(num), _as_poly(den))


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

    def __add__(self, other):
        if isinstance(other, Series):
            k = min(self.order, other.order)
            return Series(tuple(self.coeffs[i] + other.coeffs[i] for i in range(k + 1)), k)
        return Series((self.coeffs[0] + Fraction(other),) + self.coeffs[1:], self.order)

    __radd__ = __add__

    def scale(self, c):
        return Series(tuple(Fraction(c) * a for a in self.coeffs), self.order)

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def _shifted_basis(coeffs):
    """Rewrite sum p_i N^i with N = (x+1)/x as x^(-d) * sum p_i (x+1)^i x^(d-i)."""
    d = len(coeffs) - 1
    out = [Fraction(0)] * (d + 1)
    for i, p in enumerate(coeffs):
        if p == 0:
            continue
        # p * (x+1)^i * x^(d-i)
        row = [Fraction(0)] * (d + 1)
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
    dp, dq = f.num.degree, f.den.degree
    if dp > dq:
        raise PoleAtInfinityError("function has a pole at N = infinity")
    shift = dq - dp
    phat = _shifted_basis(f.num.coeffs)
    qhat = _shifted_basis(f.den.coeffs)
    # phat/qhat is a power series with nonzero constant term; long division.
    inv = [Fraction(0)] * (K + 1)
    q0 = qhat[0]
    for k in range(K + 1):
        acc = phat[k] if k < len(phat) else Fraction(0)
        for i in range(1, k + 1):
            if i < len(qhat):
                acc -= qhat[i] * inv[k - i]
        inv[k] = acc / q0
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


def format_rational(q):
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def parse_rational(text):
    return Fraction(text)


def format_polynomial(poly, var="n"):
    """Render like 4n^2-8n; fractional coefficients factor out as (...)/d."""
    if poly.is_zero():
        return "0"
    denom = 1
    for c in poly.coeffs:
        denom = denom * c.denominator // _gcd(denom, c.denominator)
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


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a
