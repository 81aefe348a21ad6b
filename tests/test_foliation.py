import random
from fractions import Fraction

import pytest

from residua.exceptions import DegenerateFoliationError
from residua.rationals import GaussRational
from residua.polynomials import MultiPoly
from residua.foliation import Foliation, SingularPoint

X = MultiPoly.var("x")
Y = MultiPoly.var("y")


def G(re, im=0):
    return GaussRational(Fraction(re), Fraction(im))


def radial() -> Foliation:
    # dual vector field x d/dx + y d/dy
    return Foliation.from_vector_field(X, Y)


def cusp_like() -> Foliation:
    return Foliation(X ** 2 - Y ** 3, X * Y ** 2)


def jouanolou(d: int) -> Foliation:
    return Foliation(X ** d * Y - 1, Y ** d - X ** (d + 1))


def test_duality_conventions():
    fol = radial()
    assert fol.a == -Y
    assert fol.b == X
    assert fol.dual_vector_field() == (X, Y)


def test_duality_roundtrip_random():
    rng = random.Random(41)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = (rng.randint(0, 3), rng.randint(0, 3))
            terms[e] = GaussRational(
                Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-2, 2)))
        return MultiPoly(("x", "y"), terms)

    seen = 0
    while seen < 200:
        f, g = rand_poly(), rand_poly()
        if f.is_zero() and g.is_zero():
            continue
        seen += 1
        assert Foliation.from_vector_field(f, g).dual_vector_field() == (f, g)


def test_rejects_zero_form_and_bad_vars():
    with pytest.raises(ValueError):
        Foliation(MultiPoly.const(0), MultiPoly.const(0))
    with pytest.raises(ValueError):
        Foliation(MultiPoly.var("z"), X)
    with pytest.raises(ValueError):
        Foliation(X, Y, ("x", "x"))


def test_degree_and_order():
    fol = cusp_like()
    assert fol.degree() == 3
    assert fol.order_at() == 2
    assert radial().order_at() == 1


def test_rename_and_translate():
    fol = radial().rename(("u", "w"))
    assert fol.a == -MultiPoly.var("w")
    assert fol.b == MultiPoly.var("u")
    moved = radial().translate((G(1), G(2)))
    assert moved.is_singular_at((G(-1), G(-2)))
    assert not moved.is_singular_at((G(0), G(0)))


def test_jacobian_at_point():
    fol = jouanolou(1)
    j = fol.jacobian_at((G(1), G(1)))
    assert j == [[G(-2), G(1)], [G(-1), G(-1)]]


def test_milnor_numbers():
    assert radial().milnor_number() == 1
    assert cusp_like().milnor_number() == 7
    assert jouanolou(1).milnor_number((G(1), G(1))) == 1


def test_singular_points_exact():
    fol = Foliation(Y - X ** 2, Y - X)
    pts = fol.singular_points()
    assert all(p.exact for p in pts)
    assert {p.coords for p in pts} == {(G(0), G(0)), (G(1), G(1))}


def test_singular_points_origin_only():
    pts = cusp_like().singular_points()
    assert pts == [SingularPoint((G(0), G(0)), True)]


def test_singular_points_numeric():
    fol = Foliation(Y - X ** 2, Y - 2)
    pts = fol.singular_points()
    assert len(pts) == 2
    assert not any(p.exact for p in pts)
    for p in pts:
        x0, y0 = p.to_complex()
        assert abs(x0 * x0 - 2) < 1e-6
        assert abs(y0 - 2) < 1e-6


def test_singular_points_mixed():
    fol = Foliation(Y - X ** 2, Y * (Y - 2))
    pts = fol.singular_points()
    exact = [p for p in pts if p.exact]
    numeric = [p for p in pts if not p.exact]
    assert [p.coords for p in exact] == [(G(0), G(0))]
    assert len(numeric) == 2
    assert fol.milnor_number((G(0), G(0))) == 2


def test_singular_points_deterministic():
    fol = jouanolou(1)
    first = fol.singular_points()
    second = fol.singular_points()
    assert [p.coords for p in first] == [p.coords for p in second]


def test_jouanolou_affine_counts():
    for d in (1, 2):
        pts = jouanolou(d).singular_points()
        assert len(pts) == d * d + d + 1
        exact = [p for p in pts if p.exact]
        assert [p.coords for p in exact] == [(G(1), G(1))]
        # every point satisfies both equations numerically
        for p in pts:
            x0, y0 = p.to_complex()
            assert abs(x0 ** d * y0 - 1) < 1e-6
            assert abs(y0 ** d - x0 ** (d + 1)) < 1e-6


def test_degenerate_locus_rejected():
    with pytest.raises(DegenerateFoliationError):
        Foliation(X * Y, X ** 2).singular_points()
    with pytest.raises(DegenerateFoliationError):
        Foliation(MultiPoly.const(0), X).singular_points()


def test_constant_coefficient_no_singularities():
    assert Foliation(MultiPoly.const(1), X).singular_points() == []


def test_pairs_with_no_second_variable():
    # neither coefficient involves y: the pair is eliminated in x itself
    assert Foliation(X, X - 1).singular_points() == []
    assert Foliation(Y, Y - 1).singular_points() == []
    # the resultant in y is x, whose root is a common zero at infinity only
    assert Foliation(X * Y - 1, X).singular_points() == []


def test_resultant_roots_at_infinity_are_rejected():
    # Res_y = x^2 - 2x; x = 0 is a common zero at infinity, x = 2 a point
    fol = Foliation(X * Y - 1, X ** 2 - 2 * X)
    assert fol.singular_points() == [
        SingularPoint((G(2), G(1, 0) / G(2, 0)), True)]
    # the same with irrational x: only the numeric x = 2 +- sqrt(2) lead
    # to points
    fol = Foliation(X * Y - 1, X * (X ** 2 - 4 * X + 2))
    pts = fol.singular_points()
    assert len(pts) == 2 and not any(p.exact for p in pts)
    for p in pts:
        x0, y0 = p.to_complex()
        assert abs(x0 * x0 - 4 * x0 + 2) < 1e-9
        assert abs(x0 * y0 - 1) < 1e-9
