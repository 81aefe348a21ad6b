"""The Sylvester resultant with cofactors, against Groebner elimination.

Two independent paths eliminate y from a pair: the Sylvester matrix
(resultant_cofactors, resultant) and a lex Groebner basis with x
smallest.  The resultant lies in the ideal, so the minimal eliminant
from the basis must divide it.
"""

from hypothesis import assume, given, settings, strategies as st

from residua.rationals import GaussRational
from residua.polynomials import (
    MultiPoly,
    TermOrder,
    exact_divide,
    poly_gcd,
    resultant,
    resultant_cofactors,
)
from residua.groebner import elimination_generator, groebner_basis

gauss_ints = st.builds(GaussRational, st.integers(-3, 3), st.integers(-2, 2))
# a + b*i with a > 0, times a unit: every nonzero value of small norm
nonzero_gauss_ints = st.builds(
    lambda a, b, k: GaussRational(a, b) * GaussRational(0, 1) ** k,
    st.integers(1, 3), st.integers(-2, 2), st.integers(0, 3))
points = st.tuples(gauss_ints, gauss_ints)
BIVARIATE = [(i, j) for i in range(4) for j in range(4) if i + j <= 3]
FREE_OF_Y = [(i, 0) for i in range(4)]


def polys(monomials):
    return st.dictionaries(st.sampled_from(monomials), nonzero_gauss_ints,
                           min_size=1, max_size=4).map(
        lambda terms: MultiPoly(("x", "y"), terms))


@st.composite
def pairs_through_a_point(draw):
    """(f, g, (x0, y0)) with f(x0, y0) = g(x0, y0) = 0, total degree <= 3;
    in one draw of three, one of the pair is free of y."""
    point = draw(points)
    f = draw(polys(BIVARIATE))
    g = draw(polys(FREE_OF_Y if draw(st.integers(0, 2)) == 0 else BIVARIATE))
    at = dict(zip(("x", "y"), point))
    f, g = (p - p.eval_exact(at) for p in (f, g))
    if draw(st.booleans()):
        f, g = g, f
    return f, g, point


@settings(deadline=None, max_examples=100)
@given(pairs_through_a_point())
def test_sylvester_cofactors_against_groebner_elimination(case):
    f, g, (x0, y0) = case
    assume(not f.is_zero() and not g.is_zero())
    assume(f.degree_in("y") > 0 or g.degree_in("y") > 0)
    res, u, v = resultant_cofactors(f, g, "y")
    assert res == u * f + v * g
    assert res.degree_in("y") <= 0
    assert res == resultant(f, g, "y")
    if res.is_zero():
        # only a shared factor involving y makes the resultant vanish
        assert poly_gcd(f, g).degree_in("y") > 0
        return
    assert res.eval_exact({"x": x0}).is_zero()
    ideal = groebner_basis([f, g], TermOrder(("y", "x")))
    eliminants = [b for b in ideal if b.active_vars() in ((), ("x",))]
    assert len(eliminants) == 1
    assert exact_divide(res, eliminants[0]) is not None
    scaled, (su, sv) = elimination_generator([f, g], "x")
    assert exact_divide(scaled, res).is_constant()
    assert su * f + sv * g == scaled
