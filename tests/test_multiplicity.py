import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from residua.exceptions import InfiniteMultiplicityError
from residua.rationals import GaussRational
from residua.polynomials import MultiPoly
from residua.multiplicity import (
    _quotient_multiplicity,
    kernel_basis,
    local_intersection_multiplicity,
    mat_mul,
    mat_pow,
    mat_rank,
    subspace_intersection_dim,
)

X = MultiPoly.var("x")
Y = MultiPoly.var("y")


def G(re, im=0):
    return GaussRational(Fraction(re), Fraction(im))


def test_mat_rank_and_kernel():
    m = [[G(1), G(2), G(3)], [G(2), G(4), G(6)], [G(0), G(1), G(1)]]
    assert mat_rank(m) == 2
    ker = kernel_basis(m)
    assert len(ker) == 1
    v = ker[0]
    for row in m:
        acc = G(0)
        for c, x in zip(row, v):
            acc = acc + c * x
        assert acc.is_zero()


def test_mat_pow():
    m = [[G(0), G(1)], [G(0), G(0)]]
    assert mat_pow(m, 2) == [[G(0), G(0)], [G(0), G(0)]]
    assert mat_pow(m, 0) == [[G(1), G(0)], [G(0), G(1)]]
    assert mat_mul(m, m) == mat_pow(m, 2)


def test_subspace_intersection_dim():
    u = [[G(1), G(0), G(0)], [G(0), G(1), G(0)]]
    w = [[G(0), G(1), G(0)], [G(0), G(0), G(1)]]
    assert subspace_intersection_dim(u, w) == 1
    assert subspace_intersection_dim(u, []) == 0


def test_transverse_lines():
    assert local_intersection_multiplicity(X, Y) == 1


def test_tangent_line_and_parabola():
    assert local_intersection_multiplicity(Y - X ** 2, Y) == 2


def test_two_parabolas():
    assert local_intersection_multiplicity(Y - X ** 2, Y + X ** 2) == 2


def test_coordinate_powers():
    assert local_intersection_multiplicity(X ** 2, Y ** 2) == 4
    assert local_intersection_multiplicity(X ** 3, Y ** 2) == 6


def test_extra_zero_away_from_origin():
    # y = x^2 and y = x also meet at (1,1); only the origin counts
    assert local_intersection_multiplicity(Y - X ** 2, Y - X) == 1


def test_multiplicity_at_shifted_point():
    point = {"x": G(1), "y": G(1)}
    assert local_intersection_multiplicity(Y - X ** 2, Y - X, point) == 1
    assert local_intersection_multiplicity(Y - X ** 2, Y - 1, point) == 1


def test_nonvanishing_gives_zero():
    assert local_intersection_multiplicity(X + 1, Y) == 0


def test_unit_common_factor_divided_out():
    f = (X + 1) * Y
    g = (X + 1) * (Y - X ** 2)
    assert local_intersection_multiplicity(f, g) == 2


def test_shared_component_through_origin():
    with pytest.raises(InfiniteMultiplicityError):
        local_intersection_multiplicity(X * Y, X * (Y + X))


def test_zero_curve_rejected():
    with pytest.raises(InfiniteMultiplicityError):
        local_intersection_multiplicity(MultiPoly.const(0), X)


def test_symmetry():
    pairs = [(Y - X ** 2, Y - X), (X ** 2, Y ** 3), (Y - X ** 2, Y + X ** 2)]
    for f, g in pairs:
        assert (local_intersection_multiplicity(f, g)
                == local_intersection_multiplicity(g, f))


def test_linear_change_of_coordinates_invariance():
    rng = random.Random(17)
    cases = [(X ** 2, Y ** 2), (Y - X ** 2, Y), (Y - X ** 2, Y + X ** 2)]
    for f, g in cases:
        base = local_intersection_multiplicity(f, g)
        for _ in range(5):
            # unimodular substitution keeps the origin and the multiplicity
            a = rng.randint(-2, 2)
            b = rng.randint(-2, 2)
            sub = {"x": X + a * Y, "y": Y + b * (X + a * Y)}
            ft = f.substitute_poly(sub)
            gt = g.substitute_poly(sub)
            assert local_intersection_multiplicity(ft, gt) == base


def test_bezout_total_over_all_points():
    # y - x^2 meets y - x at two simple points; multiplicities sum to
    # the product of degrees
    m0 = local_intersection_multiplicity(Y - X ** 2, Y - X)
    m1 = local_intersection_multiplicity(Y - X ** 2, Y - X, {"x": G(1), "y": G(1)})
    assert m0 + m1 == 2


def test_worked_example_dimension_seven():
    assert local_intersection_multiplicity(X * Y ** 2, Y ** 3 - X ** 2) == 7


gauss_ints = st.builds(GaussRational, st.integers(-3, 3), st.integers(-2, 2))
HIGHER = [(i, j) for i in range(4) for j in range(4) if 2 <= i + j <= 3]


@st.composite
def simple_zeros(draw):
    """(f, g): Gaussian-integer f, g of degree <= 3 vanishing at 0 with
    independent linear parts."""
    a, b, c, d = (draw(gauss_ints) for _ in range(4))
    assume(not (a * d - b * c).is_zero())

    def poly(linear_x, linear_y):
        terms = draw(st.dictionaries(st.sampled_from(HIGHER), gauss_ints,
                                     max_size=4))
        terms[(1, 0)], terms[(0, 1)] = linear_x, linear_y
        return MultiPoly(("x", "y"), terms)

    return poly(a, b), poly(c, d)


@settings(deadline=None, max_examples=100)
@given(simple_zeros(), st.tuples(gauss_ints, gauss_ints))
def test_simple_zero_has_multiplicity_one(case, point):
    f, g = case
    assert local_intersection_multiplicity(f, g) == 1
    assert _quotient_multiplicity(f, g, ("x", "y")) == 1
    # the same pair moved to the point
    at = dict(zip(("x", "y"), point))
    back = {v: MultiPoly.var(v) - at[v] for v in at}
    moved = [p.substitute_poly(back) for p in (f, g)]
    assert local_intersection_multiplicity(*moved, at) == 1


@settings(deadline=None, max_examples=100)
@given(simple_zeros())
def test_simple_zero_keeps_the_old_answers_off_the_pair(case):
    f, g = case
    assert local_intersection_multiplicity(f + 1, g) == 0
    assert local_intersection_multiplicity(f, g - 1) == 0
    with pytest.raises(InfiniteMultiplicityError):
        local_intersection_multiplicity(X * f, X * g)
    with pytest.raises(InfiniteMultiplicityError):
        local_intersection_multiplicity(f, MultiPoly.const(0))
