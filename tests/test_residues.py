import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from residua.exceptions import InfiniteMultiplicityError, UnsupportedInputError
from residua.rationals import GaussRational
from residua.polynomials import MultiPoly
from residua.residues import (
    _resultant_residue,
    grothendieck_residue,
    series_residue,
)
from residua.multiplicity import local_intersection_multiplicity

X = MultiPoly.var("x")
Y = MultiPoly.var("y")
Z = MultiPoly.var("z")


def G(re, im=0):
    return GaussRational(Fraction(re), Fraction(im))


def test_series_residue_simple_pole():
    assert series_residue(MultiPoly.const(1), X) == G(1)
    assert series_residue(MultiPoly.const(3), 2 * X) == G(Fraction(3, 2))


def test_series_residue_higher_order():
    assert series_residue(Y ** 2, Y ** 3) == G(1)
    assert series_residue(MultiPoly.const(1), X ** 2) == G(0)
    # x / (x^2 (1 - x)) = 1/(x(1-x)): residue 1
    assert series_residue(X, X ** 2 * (1 - X)) == G(1)


def test_series_residue_holomorphic():
    assert series_residue(MultiPoly.const(3), 1 + X) == G(0)


def test_series_residue_unit_twist():
    # (2 + y) / (y (1 + y)) has residue 2 at the origin
    assert series_residue(2 + Y, Y * (1 + Y)) == G(2)


def test_series_residue_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        series_residue(X, MultiPoly.const(0))


def test_grothendieck_linear_pair():
    assert grothendieck_residue(MultiPoly.const(1), 2 * X, -Y) == G(Fraction(-1, 2))
    assert grothendieck_residue(MultiPoly.const(4), X, Y) == G(4)


def test_grothendieck_value_at_origin():
    # for a transverse pair the residue is h(0)/Jacobian(0)
    h = 1 + 3 * X + 5 * Y + X * Y
    assert grothendieck_residue(h, X, Y) == G(1)
    assert grothendieck_residue(h, X + Y, X - Y) == G(Fraction(-1, 2))


def test_grothendieck_worked_cusp_pair():
    f = X * Y ** 2
    g = Y ** 3 - X ** 2
    h = 16 * Y ** 4
    assert grothendieck_residue(h, f, g) == G(16)


def test_residue_of_jacobian_is_multiplicity():
    cases = [
        (X * Y ** 2, Y ** 3 - X ** 2),
        (X ** 2, Y ** 2),
        (Y - X ** 2, Y + X ** 2),
    ]
    for f, g in cases:
        jac = f.diff("x") * g.diff("y") - f.diff("y") * g.diff("x")
        mu = local_intersection_multiplicity(f, g)
        assert grothendieck_residue(jac, f, g) == G(mu)


def test_grothendieck_linearity():
    rng = random.Random(23)
    f = X * Y ** 2
    g = Y ** 3 - X ** 2

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 5)):
            e = (rng.randint(0, 4), rng.randint(0, 4))
            terms[e] = GaussRational(
                Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-2, 2)))
        return MultiPoly(("x", "y"), terms)

    for _ in range(50):
        h1, h2 = rand_poly(), rand_poly()
        assert (grothendieck_residue(h1 + h2, f, g)
                == grothendieck_residue(h1, f, g) + grothendieck_residue(h2, f, g))


def test_grothendieck_vanishes_on_ideal():
    rng = random.Random(29)
    f = Y - X ** 2
    g = X * Y

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = (rng.randint(0, 3), rng.randint(0, 3))
            terms[e] = GaussRational(Fraction(rng.randint(-4, 4)))
        return MultiPoly(("x", "y"), terms)

    for _ in range(50):
        h = rand_poly() * f + rand_poly() * g
        assert grothendieck_residue(h, f, g) == G(0)


def test_common_factor_not_through_origin():
    f = (X + 1) * X
    g = (X + 1) * Y
    assert grothendieck_residue(MultiPoly.const(1), f, g) == G(1)


def test_common_unit_factor_at_a_simple_zero():
    # 1 / ((x+2)^2 x y): the residue is 1/(x+2)^2 at 0
    f = (X + 2) * X
    g = (X + 2) * Y
    assert grothendieck_residue(MultiPoly.const(1), f, g) == G(Fraction(1, 4))
    assert _resultant_residue(MultiPoly.const(1), f, g) == G(Fraction(1, 4))


def test_common_unit_factor_at_a_double_zero():
    # 1 / ((x+2)^2 x^2 y): the x coefficient of 1/(x+2)^2, -2/2^3
    f = (X + 2) * X ** 2
    g = (X + 2) * Y
    assert grothendieck_residue(MultiPoly.const(1), f, g) == G(Fraction(-1, 4))
    # the factor divides f twice: two rounds of (f/c, c g)
    f = (X + 2) ** 2 * X ** 2
    assert grothendieck_residue(MultiPoly.const(1), f, g) == G(Fraction(-3, 16))


def test_shared_component_through_origin_rejected():
    with pytest.raises(InfiniteMultiplicityError):
        grothendieck_residue(MultiPoly.const(1), X * Y, X * (Y + X))


def test_nonvanishing_denominator_rejected():
    with pytest.raises(ValueError):
        grothendieck_residue(MultiPoly.const(1), X + 1, Y)


def test_numerator_variable_check():
    with pytest.raises(ValueError):
        grothendieck_residue(MultiPoly.var("z"), X, Y)


gauss_ints = st.builds(GaussRational, st.integers(-3, 3), st.integers(-2, 2))
HIGHER = [(i, j) for i in range(4) for j in range(4) if 2 <= i + j <= 3]


@st.composite
def simple_zeros(draw):
    """(f, g, det): Gaussian-integer f, g of degree <= 3 vanishing at 0,
    det the nonzero determinant of their linear parts in (x, y)."""
    a, b, c, d = (draw(gauss_ints) for _ in range(4))
    det = a * d - b * c
    assume(not det.is_zero())

    def poly(linear_x, linear_y):
        terms = draw(st.dictionaries(st.sampled_from(HIGHER), gauss_ints,
                                     max_size=4))
        terms[(1, 0)], terms[(0, 1)] = linear_x, linear_y
        return MultiPoly(("x", "y"), terms)

    return poly(a, b), poly(c, d), det


numerators = st.dictionaries(
    st.sampled_from([(i, j) for i in range(3) for j in range(3)]),
    gauss_ints, max_size=4).map(lambda t: MultiPoly(("x", "y"), t))


@settings(deadline=None, max_examples=100)
@given(simple_zeros(), numerators)
def test_simple_zero_closed_form_against_resultant_path(case, h):
    f, g, det = case
    value = grothendieck_residue(h, f, g)
    assert value == h.coeff_of({}) / det
    assert value == _resultant_residue(h, f, g)
    assert grothendieck_residue(h, f, g, vars=("y", "x")) == -value


@settings(deadline=None, max_examples=100)
@given(simple_zeros(), numerators)
def test_simple_zero_keeps_the_input_errors(case, h):
    f, g, _ = case
    with pytest.raises(ValueError):
        grothendieck_residue(h, f + 1, g)
    with pytest.raises(ValueError):
        grothendieck_residue(h + Z, f, g)
    with pytest.raises(ValueError):
        grothendieck_residue(h, f, g, vars=("x", "z"))
    with pytest.raises(UnsupportedInputError):
        grothendieck_residue(h, f, (1 + Z) * g)
    with pytest.raises(InfiniteMultiplicityError):
        grothendieck_residue(h, X * f, X * g)
    # a pair in x alone shares the component x through the origin
    on_axis = [p.substitute_poly({"y": MultiPoly.const(0)}) for p in (f, g)]
    with pytest.raises(InfiniteMultiplicityError):
        grothendieck_residue(h, *on_axis)
