from fractions import Fraction

import pytest

from residua.rationals import GaussRational
from residua.polynomials import MultiPoly
from residua.univariate import rational_roots
from residua.foliation import Foliation
from residua.blowup import (
    DicriticalResult,
    blow_up,
    exceptional_line_invariant,
    first_blowup_dicritical,
    is_dicritical,
    is_positive_resonance,
    is_simple_dicritical,
    linear_part_rules_out_dicritical,
    vanishing_order,
)

X = MultiPoly.var("x")
Y = MultiPoly.var("y")


def G(re, im=0):
    return GaussRational(Fraction(re), Fraction(im))


def radial() -> Foliation:
    return Foliation.from_vector_field(X, Y)


def cusp_like() -> Foliation:
    return Foliation(X ** 2 - Y ** 3, X * Y ** 2)


def test_vanishing_order():
    assert vanishing_order(radial()) == 1
    assert vanishing_order(cusp_like()) == 2
    assert vanishing_order(Foliation(Y ** 3, X ** 4)) == 3


def test_first_blowup_dicritical():
    assert first_blowup_dicritical(radial())
    assert not first_blowup_dicritical(Foliation(2 * Y, X))
    assert not first_blowup_dicritical(cusp_like())
    # x (-xy) + y (x^2) = 0 in order two
    assert first_blowup_dicritical(Foliation(-X * Y, X ** 2))


def test_blow_up_radial_charts():
    down = blow_up(radial(), "x")
    assert down.vars() == ("x", "t")
    assert down.a.is_zero()
    assert down.b == MultiPoly.const(1)
    up = blow_up(radial(), "y")
    assert up.vars() == ("s", "y")
    assert up.a == MultiPoly.const(-1)
    assert up.b.is_zero()


def test_blow_up_cusp_charts():
    T = MultiPoly.var("t")
    S = MultiPoly.var("s")
    c1 = blow_up(cusp_like(), "x")
    assert c1.a == MultiPoly.const(1)
    assert c1.b == X ** 2 * T ** 2
    c2 = blow_up(cusp_like(), "y")
    assert c2.a == S ** 2 * Y - Y ** 2
    assert c2.b == S ** 3


def test_blow_up_rejects_unknown_chart():
    with pytest.raises(ValueError):
        blow_up(radial(), "z")


def test_exceptional_line_invariance():
    assert not exceptional_line_invariant(radial(), "x")
    assert not exceptional_line_invariant(radial(), "y")
    assert exceptional_line_invariant(cusp_like(), "x")
    assert exceptional_line_invariant(cusp_like(), "y")
    assert exceptional_line_invariant(Foliation(2 * Y, X), "x")


def test_resonance_set_membership():
    assert is_positive_resonance(G(4))
    assert is_positive_resonance(G(9, 0) / G(2, 0))
    assert is_positive_resonance(G(25, 0) / G(6, 0))
    assert is_positive_resonance(G(16, 0) / G(3, 0))
    assert not is_positive_resonance(G(0))
    assert not is_positive_resonance(G(3))
    assert not is_positive_resonance(G(8))
    assert not is_positive_resonance(G(17, 0) / G(4, 0))
    assert not is_positive_resonance(G(-1, 0) / G(2, 0))
    assert not is_positive_resonance(G(4, 1))


def test_positive_resonance_has_no_bound():
    # eigenvalue ratios p:q beyond any table, including 1:101
    for p, q in [(1, 101), (7, 250), (1000, 999)]:
        assert is_positive_resonance(G(Fraction((p + q) ** 2, p * q)))
        assert not is_positive_resonance(G(Fraction((p + q) ** 2 + 1, p * q)))


def test_node_one_to_101_is_not_declared_non_dicritical():
    # leaves y = c x^101: dicritical, but only after 101 blow-ups, so the
    # default depth limit of 12 leaves it undecided
    r = is_dicritical(Foliation(-101 * Y, X))
    assert r.verdict == "undecided"
    assert is_dicritical(Foliation(-12 * Y, X)) == DicriticalResult("dicritical", 12)


def test_linear_part_certificate_numeric():
    assert linear_part_rules_out_dicritical([[1.0, 0.0], [0.0, -2.0]])
    # ratio 9/2 comes from eigenvalues 1 and 2
    assert not linear_part_rules_out_dicritical([[1.0, 0.0], [0.0, 2.0]])
    # trace^2/det = 4 at a double eigenvalue
    assert not linear_part_rules_out_dicritical([[1.0, 1.0], [0.0, 1.0]])
    assert not linear_part_rules_out_dicritical([[0.0, 1.0], [0.0, 0.0]])
    # within tolerance of the 1:2 resonance
    assert not linear_part_rules_out_dicritical([[1.0, 0.0], [0.0, 2.0 + 1e-12]])
    # ratio 3 sits below every positive resonance
    assert linear_part_rules_out_dicritical([[-2.0, 1.0], [-1.0, -1.0]])


def test_dicritical_radial():
    r = is_dicritical(radial())
    assert r == DicriticalResult("dicritical", 1)
    assert r.is_dicritical()


def test_dicritical_saddle_stops_on_linear_part():
    r = is_dicritical(Foliation(2 * Y, X))
    assert r.verdict == "non_dicritical"
    assert r.depth == 1
    assert not r.is_dicritical()


def test_dicritical_resonant_node_needs_two_blowups():
    # dual field x d/dx + 2y d/dy, leaves y = c x^2
    r = is_dicritical(Foliation.from_vector_field(X, 2 * Y))
    assert r == DicriticalResult("dicritical", 2)


def test_dicritical_cusp_form_deep_chain():
    r = is_dicritical(cusp_like())
    assert r == DicriticalResult("dicritical", 6)


def test_dicritical_second_order():
    r = is_dicritical(Foliation(-X * Y, X ** 2))
    assert r == DicriticalResult("dicritical", 1)


def test_dicritical_regular_point():
    r = is_dicritical(Foliation(1 + X, Y))
    assert r.verdict == "non_dicritical"
    assert r.depth == 0
    assert "regular" in r.reason


def test_dicritical_at_shifted_point():
    fol = Foliation.from_vector_field(X - 1, Y)
    assert is_dicritical(fol, point=(1, 0)) == DicriticalResult("dicritical", 1)
    assert is_dicritical(fol, point=(0, 0)).verdict == "non_dicritical"


def test_dicritical_depth_limit():
    r = is_dicritical(cusp_like(), depth_limit=3)
    assert r.verdict == "undecided"
    assert r.depth == 3
    assert "3 blow-ups" in r.reason


def test_dicritical_undecided_on_irrational_directions():
    r = is_dicritical(Foliation(X ** 2 - 3 * Y ** 2, X ** 2))
    assert r.verdict == "undecided"
    assert r.depth == 1
    assert "non-rational" in r.reason


def test_simple_dicritical():
    assert not is_simple_dicritical(radial())
    assert is_simple_dicritical(Foliation(Y + X * Y, -X))
    # tangency hides at t = infinity but has order three there
    assert not is_simple_dicritical(Foliation(Y + X ** 2, -X))
    # order two at the point, so never simple
    assert not is_simple_dicritical(Foliation(-X * Y, X ** 2))
    assert not is_simple_dicritical(Foliation(1 + X, Y))
    assert not is_simple_dicritical(Foliation(2 * Y, X))


def test_blown_up_charts_cover_the_line():
    # singular directions found in chart one match chart two through
    # t = 1/s on the overlap
    fol = Foliation(-X ** 2 - X * Y + Y ** 2, X ** 2)
    assert not first_blowup_dicritical(fol)
    c1 = blow_up(fol, "x")
    c2 = blow_up(fol, "y")
    on1 = c1.a.substitute_poly({"x": MultiPoly.const(0)}).trim()
    on2 = c2.b.substitute_poly({"y": MultiPoly.const(0)}).trim()
    roots1, rem1 = rational_roots(on1, "t")
    assert rem1.degree() <= 0
    t_roots = {r for r, _ in roots1}
    roots2, rem2 = rational_roots(on2, "s")
    assert rem2.degree() <= 0
    s_roots = {r for r, _ in roots2}
    assert t_roots == {G(1), G(-1)}
    for t0 in t_roots:
        assert t0.inverse() in s_roots
