"""Buchberger's algorithm and quotient-ring data.

Reduced lex Groebner bases serve the quotient algebra only: normal
forms, standard monomials and the quotient dimension behind Milnor
numbers.  No cofactors are tracked.  elimination_generator does not run
Buchberger: it returns the Sylvester resultant of a pair, whose
cofactors come from the same matrix (polynomials.resultant_cofactors).
"""

from __future__ import annotations

from .rationals import ZERO, GaussRational
from .polynomials import (
    MultiPoly,
    TermOrder,
    default_order,
    gaussian_content,
    resultant_cofactors,
    sort_vars,
)


def _ambient(gens):
    return sort_vars(v for g in gens for v in g.active_vars())


def _mono(vars, exp, coeff) -> MultiPoly:
    return MultiPoly(vars, {tuple(exp): coeff})


def _divides_exp(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _divide(p: MultiPoly, reducers, order: TermOrder) -> MultiPoly:
    """Remainder of full division: p = sum q_k * reducers[k] + rem, no
    term of rem divisible by any reducer's leading term."""
    vars = p.vars
    rem = MultiPoly(vars, {})
    lts = [(g.leading_exponent(order), g.leading_coeff(order)) for g in reducers]
    work = p
    while not work.is_zero():
        e = work.leading_exponent(order)
        c = work.terms[e]
        for k, (ge, gc) in enumerate(lts):
            if _divides_exp(ge, e):
                t = _mono(vars, [a - b for a, b in zip(e, ge)], c / gc)
                work = work - t * reducers[k]
                break
        else:
            t = _mono(vars, e, c)
            rem = rem + t
            work = work - t
    return rem


class IdealBasis:
    """Reduced monic lex basis of an ideal."""

    __slots__ = ("order", "basis")

    def __init__(self, order, basis):
        self.order = order
        self.basis = tuple(basis)

    def __iter__(self):
        return iter(self.basis)

    def __len__(self):
        return len(self.basis)

    def contains_one(self) -> bool:
        return any(g.is_constant() and not g.is_zero() for g in self.basis)


def groebner_basis(gens, order: TermOrder | None = None) -> IdealBasis:
    items = [g for g in map(MultiPoly.coerce, gens) if not g.is_zero()]
    if not items:
        raise ValueError("all generators are zero")
    vars = _ambient(items)
    if order is None:
        order = default_order(vars if vars else ("x",))
    else:
        missing = [v for v in vars if v not in order.precedence]
        if missing:
            raise ValueError(f"order does not cover variables {missing}")
    if not vars:
        vars = (order.precedence[-1],)
    # keep vars in global sorted order: arithmetic re-aligns to it, so all
    # exponent tuples stay positionally comparable; precedence lives in order
    items = [g.align_to(vars) for g in items]
    lead = [g.leading_exponent(order) for g in items]

    def lcm_exp(i, j):
        return tuple(map(max, lead[i], lead[j]))

    pairs = {(i, j) for i in range(len(items)) for j in range(i + 1, len(items))}
    while pairs:
        i, j = min(pairs, key=lambda ij: order.graded_key(vars, lcm_exp(*ij)))
        pairs.discard((i, j))
        lcm = lcm_exp(i, j)
        if lcm == tuple(a + b for a, b in zip(lead[i], lead[j])):
            continue  # coprime leading terms, S-polynomial reduces to zero
        ti = _mono(vars, [a - b for a, b in zip(lcm, lead[i])],
                   items[i].leading_coeff(order).inverse())
        tj = _mono(vars, [a - b for a, b in zip(lcm, lead[j])],
                   items[j].leading_coeff(order).inverse())
        rem = _divide(ti * items[i] - tj * items[j], items, order)
        if not rem.is_zero():
            pairs.update((k, len(items)) for k in range(len(items)))
            items.append(rem)
            lead.append(rem.leading_exponent(order))

    # minimalize: drop elements whose leading term another element divides
    keep = [k for k, e in enumerate(lead)
            if not any(_divides_exp(he, e) and (he != e or m < k)
                       for m, he in enumerate(lead) if m != k)]

    # inter-reduce the survivors
    reduced = []
    for k in keep:
        others = [items[m] for m in keep if m != k]
        rem = _divide(items[k], others, order) if others else items[k]
        reduced.append(rem * rem.leading_coeff(order).inverse())

    reduced.sort(key=lambda g: order.key(vars, g.leading_exponent(order)),
                 reverse=True)
    return IdealBasis(order, reduced)


def normal_form(p, ideal: IdealBasis) -> MultiPoly:
    p = MultiPoly.coerce(p)
    vars = ideal.basis[0].vars
    extra = [v for v in p.active_vars() if v not in vars]
    if extra:
        raise ValueError(f"polynomial uses variables {extra} outside the ideal ring")
    return _divide(p.align_to(vars), ideal.basis, ideal.order)


class StandardMonomialSet:
    """Monomial basis of the quotient ring, with coordinate extraction."""

    __slots__ = ("ideal", "vars", "exponents", "index")

    def __init__(self, ideal: IdealBasis, exponents):
        self.ideal = ideal
        self.vars = ideal.basis[0].vars
        order = ideal.order
        self.exponents = tuple(sorted(
            exponents, key=lambda e: order.graded_key(self.vars, e)))
        self.index = {e: k for k, e in enumerate(self.exponents)}

    def __len__(self):
        return len(self.exponents)

    def coords(self, p) -> list[GaussRational]:
        """Coordinates of p mod the ideal in this monomial basis."""
        rem = normal_form(p, self.ideal)
        vec = [ZERO] * len(self.exponents)
        for e, c in rem.terms.items():
            vec[self.index[e]] = c
        return vec

    def monomial(self, k) -> MultiPoly:
        return MultiPoly(self.vars, {self.exponents[k]: GaussRational(1)})


def standard_monomials(ideal: IdealBasis) -> StandardMonomialSet | None:
    """None when the quotient is infinite dimensional."""
    vars = ideal.basis[0].vars
    lts = [g.leading_exponent(ideal.order) for g in ideal.basis]
    if ideal.contains_one():
        return StandardMonomialSet(ideal, [])
    bounds = []
    for i in range(len(vars)):
        pure = [e[i] for e in lts if all(e[j] == 0 for j in range(len(vars)) if j != i)]
        if not pure:
            return None
        bounds.append(min(pure))
    exps = []
    current = [0] * len(vars)

    def walk(i):
        if i == len(vars):
            e = tuple(current)
            if not any(_divides_exp(lt, e) for lt in lts):
                exps.append(e)
            return
        for k in range(bounds[i]):
            current[i] = k
            walk(i + 1)
        current[i] = 0

    walk(0)
    return StandardMonomialSet(ideal, exps)


def quotient_dimension(gens, order: TermOrder | None = None) -> int | None:
    """Dimension of polynomial ring mod ideal; None when infinite."""
    std = standard_monomials(groebner_basis(gens, order))
    return None if std is None else len(std)


def elimination_generator(gens, keep: str):
    """A nonzero polynomial in keep alone inside the ideal of a pair.

    It is the Sylvester resultant eliminating the other active variable
    (keep itself when there is none), divided by its Gaussian content.
    Returns (poly, (u, v)) with poly == u * gens[0] + v * gens[1].  The
    resultant can vanish where the eliminant does not (common zeros at
    infinity), and to higher order.  Raises ValueError when the
    resultant is 0, or when there is no variable or more than one to
    eliminate.
    """
    f, g = (MultiPoly.coerce(p) for p in gens)
    others = [v for v in _ambient([f, g]) if v != keep]
    if len(others) > 1:
        raise ValueError(f"cannot eliminate {len(others)} variables {others}")
    var = others[0] if others else keep
    res, u, v = resultant_cofactors(f, g, var)
    if res.is_zero():
        raise ValueError(f"the resultant in {var} is zero: the pair "
                         "shares a factor")
    unit = gaussian_content([res]).inverse()
    return res * unit, (u * unit, v * unit)
