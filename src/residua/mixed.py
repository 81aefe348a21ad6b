"""Polynomials in paired holomorphic and formally conjugated variables.

A mixed polynomial lives in the ring generated by a block of holomorphic
variables z, the matching block of formal conjugates conj(z), and one
self-conjugate real parameter c.  Formal conjugation conjugates the
coefficients and swaps the two blocks while fixing c.  The defining
polynomial of a real hypersurface {Im(P/Q) = 0} is

    rho = (P*conj(Q) - conj(P)*Q) / (2i),

which conjugation fixes, so rho is real although its coefficients are
not."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .rationals import GaussRational, ZERO, ONE
from .polynomials import (
    MultiPoly,
    _coeff_negative,
    _coeff_str,
    poly_gcd,
    sort_vars,
)

LEVEL_NAME = "c"

_ZEXPS = tuple[int, ...]
_KEY = tuple[_ZEXPS, _ZEXPS, int]


def _sort_key(key: _KEY):
    za, zb, ck = key
    return (sum(za) + sum(zb) + ck, za + zb + (ck,))


class MixedPoly:
    """Sparse terms keyed by (plain exponents, conjugate exponents,
    level exponent)."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: tuple[str, ...], terms: dict[_KEY, GaussRational]):
        self.vars = tuple(vars)
        self.terms = {k: c for k, c in terms.items() if not c.is_zero()}

    # -- constructors ---------------------------------------------------

    @classmethod
    def const(cls, value) -> "MixedPoly":
        c = GaussRational.coerce(value)
        if c.is_zero():
            return cls((), {})
        return cls((), {((), (), 0): c})

    @classmethod
    def embed(cls, p: MultiPoly) -> "MixedPoly":
        """The holomorphic polynomial, plain block only."""
        p = MultiPoly.coerce(p)
        return cls(p.vars, {(e, (0,) * len(p.vars), 0): c
                            for e, c in p.terms.items()})

    @classmethod
    def conj_embed(cls, p: MultiPoly) -> "MixedPoly":
        """The formal conjugate of a holomorphic polynomial."""
        return cls.embed(p).swap_conjugate()

    @classmethod
    def level(cls) -> "MixedPoly":
        """The self-conjugate parameter c."""
        return cls((), {((), (), 1): ONE})

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(za) + sum(zb) + ck == 0
                   for za, zb, ck in self.terms)

    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(za) + sum(zb) + ck for za, zb, ck in self.terms)

    def align_to(self, vars: tuple[str, ...]) -> "MixedPoly":
        if vars == self.vars:
            return self
        pos = {v: i for i, v in enumerate(vars)}
        terms: dict[_KEY, GaussRational] = {}
        for (za, zb, ck), c in self.terms.items():
            new_a = [0] * len(vars)
            new_b = [0] * len(vars)
            for v, k in zip(self.vars, za):
                new_a[pos[v]] = k
            for v, k in zip(self.vars, zb):
                new_b[pos[v]] = k
            terms[(tuple(new_a), tuple(new_b), ck)] = c
        return MixedPoly(vars, terms)

    def _with(self, other: "MixedPoly"):
        vars = sort_vars(set(self.vars) | set(other.vars))
        return self.align_to(vars), other.align_to(vars)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _sort_key(kv[0]),
                      reverse=True)

    # -- arithmetic -----------------------------------------------------

    @staticmethod
    def _coerce_operand(other):
        if isinstance(other, MixedPoly):
            return other
        if isinstance(other, MultiPoly):
            return NotImplemented
        try:
            return MixedPoly.const(GaussRational.coerce(other))
        except (TypeError, ValueError):
            return NotImplemented

    def __add__(self, other):
        other = MixedPoly._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._with(other)
        terms = dict(a.terms)
        for k, c in b.terms.items():
            terms[k] = terms.get(k, ZERO) + c
        return MixedPoly(a.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MixedPoly(self.vars, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = MixedPoly._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = MixedPoly._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = MixedPoly._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._with(other)
        terms: dict[_KEY, GaussRational] = {}
        for (za1, zb1, c1), u in a.terms.items():
            for (za2, zb2, c2), v in b.terms.items():
                key = (tuple(x + y for x, y in zip(za1, za2)),
                       tuple(x + y for x, y in zip(zb1, zb2)),
                       c1 + c2)
                terms[key] = terms.get(key, ZERO) + u * v
        return MixedPoly(a.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a mixed polynomial")
        out = MixedPoly.const(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        other = MixedPoly._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._with(other)
        return a.terms == b.terms

    def __hash__(self):
        vars = tuple(v for v in self.vars)
        return hash((vars, frozenset(self.terms.items())))

    # -- conjugation ----------------------------------------------------

    def swap_conjugate(self) -> "MixedPoly":
        """Conjugate coefficients and exchange the variable blocks."""
        return MixedPoly(self.vars, {(zb, za, ck): c.conjugate()
                                     for (za, zb, ck), c in self.terms.items()})

    def is_real(self) -> bool:
        return self == self.swap_conjugate()

    def is_imaginary(self) -> bool:
        return self.swap_conjugate() == -self

    # -- text -----------------------------------------------------------

    def _monomial_str(self, key: _KEY) -> str:
        za, zb, ck = key
        parts = []
        for v, ka, kb in zip(self.vars, za, zb):
            if ka == 1:
                parts.append(v)
            elif ka > 1:
                parts.append(f"{v}^{ka}")
            if kb == 1:
                parts.append(f"conj({v})")
            elif kb > 1:
                parts.append(f"conj({v})^{kb}")
        if ck == 1:
            parts.append(LEVEL_NAME)
        elif ck > 1:
            parts.append(f"{LEVEL_NAME}^{ck}")
        return "*".join(parts)

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for key, coeff in self.sorted_terms():
            mono = self._monomial_str(key)
            neg = _coeff_negative(coeff)
            if neg:
                coeff = -coeff
            body = _coeff_str(coeff, mono)
            if not pieces:
                pieces.append(f"-{body}" if neg else body)
            else:
                pieces.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"MixedPoly({str(self)!r})"


def _rational_content(m: MixedPoly) -> Fraction:
    """Positive rational making m / content primitive over the Gaussian
    integers.  Real scaling only, so conjugation symmetry survives."""
    triples = [c.triple for c in m.terms.values()]
    den = lcm(*(d for _, _, d in triples))
    num = gcd(*(k * (den // d) for a, b, d in triples for k in (a, b)))
    return Fraction(num, den)


def levi_flat_from_rational(p: MultiPoly, q: MultiPoly) -> MixedPoly:
    """Defining polynomial of {Im(p/q) = 0}.

    Returns rho = (p*conj(q) - conj(p)*q) / (2i) with the numerator
    normalized to primitive coefficients and a sign-fixed leading term,
    so equal hypersurfaces get byte-identical output.  rho itself passes
    the reality check."""
    p = MultiPoly.coerce(p)
    q = MultiPoly.coerce(q)
    if q.is_zero():
        raise ValueError("zero denominator")
    if not poly_gcd(p, q).is_constant():
        raise ValueError("numerator and denominator share a factor")
    sigma = (MixedPoly.embed(p) * MixedPoly.conj_embed(q)
             - MixedPoly.conj_embed(p) * MixedPoly.embed(q))
    if sigma.is_zero():
        return sigma
    scale = GaussRational(1 / _rational_content(sigma))
    sigma = sigma * scale
    lead = sigma.sorted_terms()[0][1]
    if _coeff_negative(lead):
        sigma = -sigma
    # 1 / (2i) = -i/2
    return sigma * GaussRational(Fraction(0), Fraction(-1, 2))


def defining_equation(rho: MixedPoly) -> str:
    """Canonical equation text for {rho = 0} with the 2i factor cleared."""
    doubled = rho * GaussRational(Fraction(0), Fraction(2))
    return str(doubled)
