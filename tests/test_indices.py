import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from residua.exceptions import UnsupportedInputError
from residua.rationals import GaussRational
from residua.polynomials import MultiPoly
from residua.foliation import Foliation
from residua.darboux import one_form_from_factored
from residua.indices import (
    bb_from_factored,
    bb_numeric,
    bb_residue,
    cs_from_factored,
    cs_smooth_branch,
)

X = MultiPoly.var("x")
Y = MultiPoly.var("y")
U = MultiPoly.var("u")
W = MultiPoly.var("w")


def G(re, im=0):
    return GaussRational(Fraction(re), Fraction(im))


def trace_squared_over_det(fol, point=None):
    j = fol.jacobian_at(point)
    tr = j[0][0] + j[1][1]
    det = j[0][0] * j[1][1] - j[0][1] * j[1][0]
    return tr * tr / det


def test_bb_nondegenerate_node():
    # dual field (x, 2y): trace 3, det 2
    fol = Foliation.from_vector_field(X, 2 * Y)
    assert trace_squared_over_det(fol) == G(9, 0) / G(2, 0)
    assert bb_residue(fol) == trace_squared_over_det(fol)


def test_bb_residue_at_zero_determinant():
    # dual field (x^2, y): det J(0) = 0, so trace^2/det does not apply;
    # the residue of (1 + 2x)^2 / (x^2, y) is the x coefficient, 4
    fol = Foliation.from_vector_field(X ** 2, Y)
    j = fol.jacobian_at()
    assert (j[0][0] * j[1][1] - j[0][1] * j[1][0]).is_zero()
    assert bb_residue(fol) == G(4)


def test_bb_residue_handles_degenerate_point():
    fol = Foliation(X ** 2 - Y ** 3, X * Y ** 2)
    assert bb_residue(fol) == G(16)


def test_bb_orientation_follows_chart_variables():
    # same geometry written in the (s, t) chart; swapping the pair
    # negates a residue, so the chart order must win over any default
    S = MultiPoly.var("s")
    T = MultiPoly.var("t")
    fol = Foliation(T, -2 * S, ("s", "t"))
    assert bb_residue(fol) == G(9, 0) / G(2, 0)
    flipped = Foliation(-2 * S, T, ("t", "s"))
    assert bb_residue(flipped) == G(9, 0) / G(2, 0)


def test_bb_at_exact_off_origin_point():
    fol = Foliation(X * Y - 1, Y - X ** 2)
    assert trace_squared_over_det(fol, (1, 1)) == G(3)
    assert bb_residue(fol, (1, 1)) == trace_squared_over_det(fol, (1, 1))


def test_bb_numeric_at_complex_points():
    fol = Foliation(X * Y - 1, Y - X ** 2)
    values = []
    for p in fol.singular_points():
        if p.exact:
            values.append(complex(bb_residue(fol, p.coords).to_complex()))
        else:
            values.append(bb_numeric(fol, p.coords))
    assert len(values) == 3
    for v in values:
        assert abs(v - 3) < 1e-9
    assert abs(sum(values) - 9) < 1e-9


def test_bb_numeric_rejects_degenerate():
    fol = Foliation.from_vector_field(X ** 2, Y)
    with pytest.raises(UnsupportedInputError):
        bb_numeric(fol, (0.0, 0.0))


def test_cs_node_branches():
    fol = Foliation(Y, X)
    assert cs_smooth_branch(fol, "x") == G(-1)
    assert cs_smooth_branch(fol, "y") == G(-1)


def test_cs_weighted_saddle_in_other_chart():
    # w du - 2u dw along u = 0
    fol = Foliation(W, -2 * U, ("u", "w"))
    assert cs_smooth_branch(fol, "u") == G(2)
    fol = Foliation(-W, 3 * U, ("u", "w"))
    assert cs_smooth_branch(fol, "u") == G(3)


def test_cs_at_shifted_point():
    fol = Foliation(Y, X - 1)
    assert cs_smooth_branch(fol, "x", point=(1, 0)) == G(-1)


def test_cs_requires_invariant_branch():
    fol = Foliation(X + Y, Y)
    with pytest.raises(ValueError):
        cs_smooth_branch(fol, "x")


def test_cs_rejects_branch_inside_singular_locus():
    fol = Foliation(X, X * Y)
    with pytest.raises(ValueError):
        cs_smooth_branch(fol, "x")


def test_cs_rejects_unknown_variable():
    fol = Foliation(Y, X)
    with pytest.raises(ValueError):
        cs_smooth_branch(fol, "u")


def test_bb_factored_two_lines():
    facs = [(X, 1), (Y, 2)]
    assert bb_from_factored(facs) == G(-1, 0) / G(2, 0)
    # the same foliation written out is y dx + 2x dy
    assert bb_residue(Foliation(Y, 2 * X)) == G(-1, 0) / G(2, 0)


def test_cs_factored_two_lines():
    facs = [(X, 1), (Y, 2)]
    assert cs_from_factored(facs, 0) == G(-2)
    assert cs_from_factored(facs, 1) == G(-1, 0) / G(2, 0)
    fol = Foliation(Y, 2 * X)
    assert cs_smooth_branch(fol, "x") == G(-2)
    assert cs_smooth_branch(fol, "y") == G(-1, 0) / G(2, 0)


def test_factored_three_lines_match_direct_computation():
    facs = [(X, 1), (Y, 2), (X + Y, 3)]
    fol = one_form_from_factored(facs)
    assert bb_from_factored(facs) == G(-2)
    assert bb_residue(fol) == G(-2)
    assert cs_from_factored(facs, 0) == G(-5)
    assert cs_smooth_branch(fol, "x") == G(-5)
    assert cs_from_factored(facs, 1) == G(-2)
    assert cs_smooth_branch(fol, "y") == G(-2)


def test_factored_at_shifted_point():
    facs = [(X - 1, 1), (Y, 2)]
    point = (1, 0)
    assert bb_from_factored(facs, point) == G(-1, 0) / G(2, 0)
    assert cs_from_factored(facs, 0, point) == G(-2)
    # away from the common point every pair multiplicity vanishes
    assert bb_from_factored(facs) == G(0)


def test_factored_gaussian_exponent():
    i = G(0, 1)
    facs = [(X, i), (Y, 1)]
    assert bb_from_factored(facs) == G(2)
    assert bb_residue(one_form_from_factored(facs)) == G(2)


def test_factored_validation():
    with pytest.raises(ValueError):
        bb_from_factored([])
    with pytest.raises(ValueError):
        bb_from_factored([(MultiPoly.const(3), 1)])
    with pytest.raises(ValueError):
        bb_from_factored([(X, 0)])
    with pytest.raises(ValueError):
        cs_from_factored([(X, 1)], 1)


def test_factored_agrees_with_residue_on_random_line_products():
    rng = random.Random(20260)
    for _ in range(30):
        n = rng.choice([2, 2, 3])
        lines = []
        slopes = set()
        while len(lines) < n:
            c = rng.randint(-3, 3)
            d = rng.randint(-3, 3)
            if (c, d) == (0, 0):
                continue
            key = None
            if d == 0:
                key = ("inf",)
            else:
                key = (Fraction(c, d),)
            if key in slopes:
                continue
            slopes.add(key)
            lines.append(c * X + d * Y)
        exps = [rng.choice([1, 2, 3, -1, -2]) for _ in range(n)]
        facs = list(zip(lines, exps))
        total = sum(exps)
        if total == 0:
            # a zero exponent sum can leave the form with a common
            # polynomial factor; nudge the last exponent away from it
            facs[-1] = (lines[-1], exps[-1] + 3)
        fol = one_form_from_factored(facs)
        assert bb_from_factored(facs) == bb_residue(fol)


def test_cs_factored_agrees_with_branch_on_random_curves():
    rng = random.Random(20261)
    pool = [Y, X + Y, X - Y, Y - X ** 2, Y + X ** 2, 2 * X + Y]
    for _ in range(25):
        g = pool[rng.randrange(len(pool))]
        e1 = rng.choice([1, 2, 3])
        e2 = rng.choice([1, 2, -2, 3])
        facs = [(X, e1), (g, e2)]
        fol = one_form_from_factored(facs)
        assert cs_from_factored(facs, 0) == cs_smooth_branch(fol, "x")


gauss_ints = st.builds(GaussRational, st.integers(-3, 3), st.integers(-2, 2))
# a + b*i with a > 0, times a unit: every nonzero value of small norm
nonzero_gauss_ints = st.builds(
    lambda a, b, k: GaussRational(a, b) * GaussRational(0, 1) ** k,
    st.integers(1, 3), st.integers(-2, 2), st.integers(0, 3))


def _crossing(l1, l2):
    """Common point of the lines c x + d y + e = 0 given as (c, d, e)."""
    (c1, d1, e1), (c2, d2, e2) = l1, l2
    det = c1 * d2 - c2 * d1
    return (e2 * d1 - e1 * d2) / det, (c2 * e1 - c1 * e2) / det


@pytest.mark.parametrize("concurrent", [False, True])
@settings(deadline=None, max_examples=50)
@given(data=st.data())
def test_residue_agrees_with_factored_at_line_crossings(concurrent, data):
    """Three Gaussian-integer lines with Gaussian-integer exponents: at
    every crossing bb_residue (Grothendieck residue through Sylvester
    cofactors) equals bb_from_factored (intersection multiplicities).  A
    concurrent triple gives one degenerate point, Milnor number 4."""
    draw = data.draw
    dirs = draw(st.lists(st.tuples(gauss_ints, gauss_ints),
                         min_size=3, max_size=3))
    assume(all(c1 * d2 != c2 * d1
               for k, (c1, d1) in enumerate(dirs) for c2, d2 in dirs[k + 1:]))
    if concurrent:
        px, py = draw(st.tuples(gauss_ints, gauss_ints))
        lines = [(c, d, -(c * px + d * py)) for c, d in dirs]
    else:
        lines = [(c, d, draw(gauss_ints)) for c, d in dirs]
        assume(_crossing(lines[0], lines[1]) != _crossing(lines[0], lines[2]))
    exps = draw(st.lists(nonzero_gauss_ints, min_size=3, max_size=3))
    # a zero exponent sum makes a concurrent triple dicritical
    assume(not concurrent or not sum(exps, GaussRational(0)).is_zero())
    facs = [(c * X + d * Y + e, ell) for (c, d, e), ell in zip(lines, exps)]
    fol = one_form_from_factored(facs)
    crossings = {_crossing(lines[i], lines[j])
                 for i in range(3) for j in range(i + 1, 3)}
    assert len(crossings) == (1 if concurrent else 3)
    for point in crossings:
        assert bb_residue(fol, point) == bb_from_factored(facs, point)
    if concurrent:
        (point,) = crossings
        assert fol.milnor_number(point) == 4
