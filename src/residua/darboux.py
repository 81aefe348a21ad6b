"""First integrals built from rational functions and an exponential.

A candidate integral is a finite product prod f_i^(l_i) * exp(e) with
rational f_i and e.  Its logarithmic differential is a rational one-form
with polynomial numerator pair; the candidate is a first integral of a
foliation exactly when that pair is proportional to the foliation's
coefficients, which is a polynomial identity checked exactly.
"""

from __future__ import annotations

from .rationals import GaussRational
from .polynomials import (
    MultiPoly,
    RatFunc,
    exact_divide,
    gaussian_content,
    poly_gcd,
)
from .foliation import Foliation, check_factors


class DarbouxSpec:
    """prod factors[i][0] ** factors[i][1] * exp(exp_part)."""

    __slots__ = ("factors", "exp_part")

    def __init__(self, factors, exp_part=None):
        clean = []
        for f, ell in factors:
            f = RatFunc.coerce(f)
            ell = GaussRational.coerce(ell)
            if f.is_zero():
                raise ValueError("zero base in a power")
            clean.append((f, ell))
        self.factors = tuple(clean)
        self.exp_part = RatFunc.coerce(exp_part) if exp_part is not None else None

    def __repr__(self):
        parts = [f"({f})^({ell})" for f, ell in self.factors]
        if self.exp_part is not None:
            parts.append(f"exp({self.exp_part})")
        return " * ".join(parts) if parts else "1"


def logarithmic_differential(spec: DarbouxSpec, vars=("x", "y")):
    """d(log H) as (P, Q, D) with dH/H = (P d vx + Q d vy) / D.

    The triple is not reduced: D is the product of the polynomial parts
    of the factors (times the square of the exponential part's
    denominator), and P, Q may share factors with it.  Each factor
    n/d counts as n^l * d^(-l), and the sum is taken by the product
    rule, so no gcd is computed."""
    vx, vy = vars
    p = MultiPoly.const(0)
    q = MultiPoly.const(0)
    den = MultiPoly.const(1)
    for f, ell in spec.factors:
        for g, k in ((f.num, ell), (f.den, -ell)):
            if g.is_constant():
                continue
            scaled = den * k
            p = p * g + g.diff(vx) * scaled
            q = q * g + g.diff(vy) * scaled
            den = den * g
    if spec.exp_part is not None:
        n, d = spec.exp_part.num, spec.exp_part.den
        d2 = d * d
        p = p * d2 + (n.diff(vx) * d - n * d.diff(vx)) * den
        q = q * d2 + (n.diff(vy) * d - n * d.diff(vy)) * den
        den = den * d2
    return p, q, den


def check_first_integral(fol: Foliation, spec: DarbouxSpec) -> bool:
    """Exact test that the candidate is constant on the leaves."""
    p, q, _ = logarithmic_differential(spec, fol.vars())
    if p.is_zero() and q.is_zero():
        return False
    wedge = fol.a * q - fol.b * p
    return wedge.is_zero()


def one_form_from_factored(factors, vars=("x", "y")) -> Foliation:
    """The foliation with first integral prod g_i^(l_i), as a polynomial
    one-form with common factors and scalar content removed."""
    vx, vy = vars
    clean = check_factors(factors)
    a = MultiPoly.const(0)
    b = MultiPoly.const(0)
    for i, (gi, li) in enumerate(clean):
        rest = MultiPoly.const(1)
        for j, (gj, _) in enumerate(clean):
            if j != i:
                rest = rest * gj
        a = a + rest * gi.diff(vx) * li
        b = b + rest * gi.diff(vy) * li
    if a.is_zero() and b.is_zero():
        raise ValueError("the product is constant along both directions")
    common = poly_gcd(a, b)
    if not common.is_constant():
        a = exact_divide(a, common)
        b = exact_divide(b, common)
    unit = gaussian_content([a, b]).inverse()
    return Foliation(a * unit, b * unit, vars)
