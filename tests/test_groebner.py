import random
from fractions import Fraction

import pytest

from residua.rationals import GaussRational
from residua.polynomials import MultiPoly, TermOrder, exact_divide
from residua.groebner import (
    elimination_generator,
    groebner_basis,
    normal_form,
    quotient_dimension,
    standard_monomials,
)

X = MultiPoly.var("x")
Y = MultiPoly.var("y")
Z = MultiPoly.var("z")


def test_basis_worked_example():
    # lex x > y
    gens = [X * Y ** 2, Y ** 3 - X ** 2]
    ideal = groebner_basis(gens)
    assert list(ideal.basis) == [X ** 2 - Y ** 3, X * Y ** 2, Y ** 5]


def test_basis_generates_the_ideal():
    gens = [X * Y ** 2, Y ** 3 - X ** 2]
    ideal = groebner_basis(gens)
    # the generators lie in the ideal of the basis ...
    for g in gens:
        assert normal_form(g, ideal).is_zero()
    # ... and the basis in the ideal of the generators
    assert ideal.basis == (-gens[1], gens[0], Y ** 2 * gens[1] + X * gens[0])


def test_normal_form():
    gens = [X * Y ** 2, Y ** 3 - X ** 2]
    ideal = groebner_basis(gens)
    assert normal_form(Y ** 8, ideal).is_zero()
    assert normal_form(X ** 3, ideal).is_zero()
    assert normal_form(X + Y, ideal) == X + Y
    assert normal_form(X * Y ** 2 + X, ideal) == X


def test_normal_form_rejects_foreign_vars():
    ideal = groebner_basis([X ** 2, Y ** 2])
    with pytest.raises(ValueError):
        normal_form(Z, ideal)


def test_standard_monomials_worked_example():
    ideal = groebner_basis([X * Y ** 2, Y ** 3 - X ** 2])
    std = standard_monomials(ideal)
    assert std is not None
    assert set(std.exponents) == {
        (0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 0), (1, 1)}
    assert len(std) == 7


def test_standard_monomial_coords():
    ideal = groebner_basis([X ** 2, Y ** 2])
    std = standard_monomials(ideal)
    p = 3 * X * Y + 2 * X + 1
    vec = std.coords(p)
    rebuilt = MultiPoly.const(0)
    for k, c in enumerate(vec):
        rebuilt = rebuilt + std.monomial(k) * c
    assert rebuilt == p


def test_quotient_dimensions():
    assert quotient_dimension([X * Y ** 2, Y ** 3 - X ** 2]) == 7
    assert quotient_dimension([X ** 2, Y ** 3]) == 6
    assert quotient_dimension([X, Y]) == 1
    assert quotient_dimension([X * Y]) is None


def test_unit_ideal():
    ideal = groebner_basis([X, X + 1])
    assert ideal.contains_one()
    assert quotient_dimension([X, X + 1]) == 0


def test_all_zero_generators_rejected():
    with pytest.raises(ValueError):
        groebner_basis([MultiPoly.const(0)])


def test_order_must_cover_variables():
    with pytest.raises(ValueError):
        groebner_basis([X + Y], TermOrder(("x",)))


def test_elimination_generator_both_directions():
    gens = [Y - X ** 2, 1 - X * Y]
    for keep, order, eliminant in (("x", TermOrder(("y", "x")), X ** 3 - 1),
                                   ("y", TermOrder(("x", "y")), Y ** 3 - 1)):
        # the minimal eliminant: the lex basis with keep smallest meets
        # k[keep] in exactly one element
        ideal = groebner_basis(gens, order)
        assert [g for g in ideal if g.active_vars() == (keep,)] == [eliminant]
        # the resultant is in the ideal and a multiple of the eliminant;
        # here it has the same degree, so it is a scalar multiple
        res, (u, v) = elimination_generator(gens, keep)
        assert res.active_vars() == (keep,)
        assert u * gens[0] + v * gens[1] == res
        assert exact_divide(res, eliminant).is_constant()


def test_elimination_generator_missing():
    with pytest.raises(ValueError):
        elimination_generator([X * Y], "x")
    # a shared factor involving y makes the resultant in y vanish
    with pytest.raises(ValueError):
        elimination_generator([X * Y, X * Y ** 2], "x")
    # two constants leave no variable to eliminate
    with pytest.raises(ValueError):
        elimination_generator([MultiPoly.const(2), MultiPoly.const(3)], "x")


def test_membership_random_combinations():
    rng = random.Random(3)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = (rng.randint(0, 2), rng.randint(0, 2))
            terms[e] = GaussRational(
                Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-1, 1)))
        return MultiPoly(("x", "y"), terms)

    for _ in range(25):
        g1, g2 = rand_poly(), rand_poly()
        if g1.is_zero() and g2.is_zero():
            continue
        ideal = groebner_basis([g1, g2])
        ring = ideal.basis[0].vars
        h1, h2 = rand_poly(), rand_poly()
        if any(v not in ring for v in (h1 * g1 + h2 * g2).active_vars()):
            h1, h2 = MultiPoly.const(1), MultiPoly.const(2)
        member = h1 * g1 + h2 * g2
        assert normal_form(member, ideal).is_zero()


def test_three_variable_elimination():
    # the curve (z^2, z^3, z) projects onto the whole y line, so the
    # lex basis with y smallest meets k[y] only in zero
    gens = [X - Z ** 2, Y - Z ** 3]
    ideal = groebner_basis(gens, TermOrder(("z", "x", "y")))
    assert not [g for g in ideal if g.active_vars() in ((), ("y",))]
    # the resultant eliminates one variable, not two
    with pytest.raises(ValueError):
        elimination_generator(gens, "y")
    # x = z^2 with z^4 = 3 forces x^2 = 3
    ideal2 = groebner_basis([X - Z ** 2, Z ** 4 - 3], TermOrder(("z", "x")))
    assert [g for g in ideal2 if g.active_vars() == ("x",)] == [X ** 2 - 3]


def test_normal_form_is_linear():
    rng = random.Random(5)
    ideal = groebner_basis([X ** 2 - Y, Y ** 2 - 1])

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 5)):
            e = (rng.randint(0, 3), rng.randint(0, 3))
            terms[e] = GaussRational(Fraction(rng.randint(-4, 4)))
        return MultiPoly(("x", "y"), terms)

    for _ in range(40):
        p, q = rand_poly(), rand_poly()
        assert normal_form(p + q, ideal) == normal_form(p, ideal) + normal_form(q, ideal)
        assert normal_form(p * q, ideal) == normal_form(
            normal_form(p, ideal) * normal_form(q, ideal), ideal)
