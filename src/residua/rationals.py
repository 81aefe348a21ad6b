"""Exact arithmetic in the field Q(i) of Gaussian rationals.

A Gaussian rational is stored as one reduced integer triple (a, b, d)
standing for (a + b*i)/d, with d > 0 and gcd(a, b, d) = 1.  Every value
has exactly one such triple, so equality is equality of triples.  An
addition, subtraction, multiplication or inversion is integer arithmetic
followed by one ``math.gcd`` of three integers; sums over a common
denominator skip the cross products, and Gaussian integers (d = 1) skip
the gcd too.  The real and imaginary parts are ``fractions.Fraction``
properties, and a real value compares and hashes equal to the ``int`` or
``Fraction`` it equals.

The module also provides exact square roots (needed to solve quadratics
over Q(i) in closed form) and gcd/divisor utilities for Gaussian integers
(needed for content normalization and rational-root sieving).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Iterator

_RatLike = (int, Fraction)


def _triple(value):
    """The reduced triple of an int or a Fraction, else None."""
    if isinstance(value, int):
        return (int(value), 0, 1)
    if isinstance(value, Fraction):
        return (value.numerator, 0, value.denominator)
    return None


class GaussRational:
    """An element of Q(i), immutable.

    ``triple`` is the reduced (a, b, d) with value (a + b*i)/d.
    """

    __slots__ = ("triple",)

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            _set_triple(self, (re, im, 1))
            return
        re = re if isinstance(re, Fraction) else Fraction(re)
        im = im if isinstance(im, Fraction) else Fraction(im)
        p, q = re.numerator, re.denominator
        r, s = im.numerator, im.denominator
        # over d = lcm(q, s) the triple is already reduced, since p/q
        # and r/s are
        d = q // gcd(q, s) * s
        _set_triple(self, (p * (d // q), r * (d // s), d))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRational is immutable")

    def __delattr__(self, name):
        raise AttributeError("GaussRational is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def coerce(value) -> "GaussRational":
        if isinstance(value, GaussRational):
            return value
        if isinstance(value, _RatLike):
            return GaussRational(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to GaussRational")

    # -- parts ----------------------------------------------------------

    @property
    def re(self) -> Fraction:
        a, _, d = self.triple
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d = self.triple
        return Fraction(b, d)

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return self.triple == (0, 0, 1)

    def is_real(self) -> bool:
        return not self.triple[1]

    def is_one(self) -> bool:
        return self.triple == (1, 0, 1)

    def __bool__(self) -> bool:
        return self.triple != (0, 0, 1)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        t = other.triple if type(other) is GaussRational else _triple(other)
        if t is None:
            return NotImplemented
        a1, b1, d1 = self.triple
        a2, b2, d2 = t
        if d1 == d2:
            if d1 == 1:
                return _make(a1 + a2, b1 + b2, 1)
            return _reduced(a1 + a2, b1 + b2, d1)
        return _reduced(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        t = other.triple if type(other) is GaussRational else _triple(other)
        if t is None:
            return NotImplemented
        a1, b1, d1 = self.triple
        a2, b2, d2 = t
        if d1 == d2:
            if d1 == 1:
                return _make(a1 - a2, b1 - b2, 1)
            return _reduced(a1 - a2, b1 - b2, d1)
        return _reduced(a1 * d2 - a2 * d1, b1 * d2 - b2 * d1, d1 * d2)

    def __rsub__(self, other):
        return GaussRational.coerce(other) - self

    def __neg__(self):
        a, b, d = self.triple
        return _make(-a, -b, d)

    def __mul__(self, other):
        t = other.triple if type(other) is GaussRational else _triple(other)
        if t is None:
            return NotImplemented
        a1, b1, d1 = self.triple
        a2, b2, d2 = t
        d = d1 * d2
        if d == 1:
            return _make(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, 1)
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d)

    __rmul__ = __mul__

    def inverse(self) -> "GaussRational":
        # d / (a + b i) = d (a - b i) / (a^2 + b^2)
        a, b, d = self.triple
        n = a * a + b * b
        if not n:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return _reduced(d * a, -d * b, n)

    def __truediv__(self, other):
        return self * GaussRational.coerce(other).inverse()

    def __rtruediv__(self, other):
        return GaussRational.coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return self.inverse() ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> "GaussRational":
        a, b, d = self.triple
        return _make(a, -b, d)

    def norm(self) -> Fraction:
        """Field norm re^2 + im^2, a nonnegative rational."""
        a, b, d = self.triple
        return Fraction(a * a + b * b, d * d)

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other):
        t = other.triple if type(other) is GaussRational else _triple(other)
        if t is None:
            return NotImplemented
        return self.triple == t

    def __hash__(self):
        a, b, d = self.triple
        if b:
            return hash(self.triple)
        # as the int or Fraction of the same value
        return hash(a) if d == 1 else hash(Fraction(a, d))

    # -- conversion -----------------------------------------------------

    def to_complex(self) -> complex:
        a, b, d = self.triple
        return complex(a / d, b / d)

    def __str__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return _imag_str(im)
        sign = "-" if im < 0 else "+"
        return f"{re}{sign}{_imag_str(abs(im))}"

    def __repr__(self):
        return f"GaussRational({self.re!r}, {self.im!r})"


_new = object.__new__
_set_triple = GaussRational.triple.__set__


def _make(a: int, b: int, d: int) -> GaussRational:
    """The value of a triple that is already reduced."""
    z = _new(GaussRational)
    _set_triple(z, (a, b, d))
    return z


def _reduced(a: int, b: int, d: int) -> GaussRational:
    """The value (a + b*i)/d for d > 0, reduced by one gcd."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _make(a, b, d)


def _imag_str(im: Fraction) -> str:
    if im == 1:
        return "i"
    if im == -1:
        return "-i"
    return f"{im}*i"


ZERO = GaussRational(0)
ONE = GaussRational(1)
I = GaussRational(0, 1)


# -- exact square roots -------------------------------------------------


def fraction_sqrt(f: Fraction) -> Fraction | None:
    """Exact nonnegative square root of a rational, or None."""
    if f < 0:
        return None
    num, den = f.numerator, f.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def gauss_sqrt(z: GaussRational) -> GaussRational | None:
    """A square root of z inside Q(i), or None when no such root exists.

    Writing w = c + d*i with w^2 = z forces c^2 = (re + |z|)/2 where
    |z| = sqrt(norm z), so everything reduces to rational square tests.
    """
    if z.is_zero():
        return ZERO
    if not z.im:
        r = fraction_sqrt(z.re)
        if r is not None:
            return GaussRational(r)
        r = fraction_sqrt(-z.re)
        if r is not None:
            return GaussRational(0, r)
        return None
    n = fraction_sqrt(z.norm())
    if n is None:
        return None
    c = fraction_sqrt((z.re + n) / 2)
    if c is None or c == 0:
        return None
    d = z.im / (2 * c)
    w = GaussRational(c, d)
    return w if w * w == z else None


# -- Gaussian integers --------------------------------------------------


def gauss_int_gcd(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """Euclidean gcd in Z[i] with rounded division, normalized so the
    result has re > 0, or re == 0 and im > 0 (zero stays zero)."""
    while b != (0, 0):
        a, b = b, _gauss_int_mod(a, b)
    return _normalize_unit(a)


def _gauss_int_mod(a, b):
    ar, ai = a
    br, bi = b
    n = br * br + bi * bi
    # nearest Gaussian integer to a/b
    qr = (2 * (ar * br + ai * bi) + n) // (2 * n)
    qi = (2 * (ai * br - ar * bi) + n) // (2 * n)
    return (ar - (qr * br - qi * bi), ai - (qr * bi + qi * br))


def _normalize_unit(a):
    ar, ai = a
    if ar == 0 and ai == 0:
        return a
    # multiply by a unit to land in the half-plane re > 0, tie-broken upward
    for _ in range(4):
        if ar > 0 or (ar == 0 and ai > 0):
            break
        ar, ai = -ai, ar
    return (ar, ai)


def gauss_int_divisors(z: tuple[int, int], cap: int = 200000) -> Iterator[tuple[int, int]]:
    """All divisors of a nonzero Gaussian integer, up to units.

    Scans the norm lattice; every divisor's norm divides norm(z).  Yields
    nothing when norm(z) exceeds ``cap`` (callers fall back to numerics).
    """
    zr, zi = z
    n = zr * zr + zi * zi
    if n == 0 or n > cap:
        return
    seen = set()
    bound = isqrt(n)
    for a in range(0, bound + 1):
        for b in range(0, bound + 1):
            m = a * a + b * b
            if m == 0 or m > n or n % m:
                continue
            for cand in ((a, b), (b, a)):
                for d in {cand, (cand[0], -cand[1])}:
                    if d[0] * d[0] + d[1] * d[1] == 0:
                        continue
                    if _divides(d, z) and _normalize_unit(d) not in seen:
                        d = _normalize_unit(d)
                        seen.add(d)
                        yield d


def _divides(d, z):
    dr, di = d
    zr, zi = z
    n = dr * dr + di * di
    return (zr * dr + zi * di) % n == 0 and (zi * dr - zr * di) % n == 0
