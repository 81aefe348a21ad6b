import pytest
from hypothesis import assume, given, settings, strategies as st

from residua.exceptions import DegenerateFoliationError, UnsupportedInputError
from residua.rationals import ZERO, ONE, GaussRational
from residua.polynomials import MultiPoly, exact_divide, poly_gcd
from residua.foliation import Foliation
from residua.projective import ProjectiveFoliation, ProjectivePoint

X = MultiPoly.var("x")
Y = MultiPoly.var("y")
Z1 = MultiPoly.var("Z1")
Z2 = MultiPoly.var("Z2")
Z3 = MultiPoly.var("Z3")


def G(re, im=0):
    return GaussRational(re, im)


def jouanolou(d: int) -> Foliation:
    return Foliation(X ** d * Y - 1, Y ** d - X ** (d + 1))


def line_pencil() -> ProjectiveFoliation:
    return ProjectiveFoliation(Z3, MultiPoly.const(0), -Z1)


def conic_pencil() -> ProjectiveFoliation:
    return ProjectiveFoliation(Z2 * Z3, Z1 * Z3, -2 * Z1 * Z2)


def test_validation():
    with pytest.raises(ValueError):
        ProjectiveFoliation(Z1, Z2, Z3)  # Euler identity fails
    with pytest.raises(ValueError):
        ProjectiveFoliation(Z1 ** 2, Z2, -2 * Z1)  # mixed degrees
    with pytest.raises(ValueError):
        ProjectiveFoliation(Z1 + Z2 ** 2, -Z1, MultiPoly.const(0))
    with pytest.raises(ValueError):
        ProjectiveFoliation(Z2 * Z3 ** 2, -Z1 * Z3 ** 2, MultiPoly.const(0))


def test_validation_finds_a_factor_shared_only_at_infinity():
    # the chart Z3 = 1 sees the coprime pair (y, -x); Z3 divides all three
    with pytest.raises(ValueError, match="Z3"):
        ProjectiveFoliation(Z2 * Z3, -Z1 * Z3, MultiPoly.const(0))
    # a factor the chart does see, reported in homogeneous form
    with pytest.raises(ValueError, match=r"Z1 \+ Z3|Z3 \+ Z1"):
        ProjectiveFoliation(Z2 * (Z1 + Z3), -Z1 * (Z1 + Z3),
                            MultiPoly.const(0))


def test_degrees():
    assert line_pencil().degree() == 0
    assert line_pencil().bezout_count() == 1
    assert conic_pencil().degree() == 1
    assert conic_pencil().bezout_count() == 3


def test_conic_pencil_charts():
    fol = conic_pencil()
    c3 = fol.chart("Z3")
    assert (c3.a, c3.b) == (Y, X)
    c2 = fol.chart("Z2")
    assert (c2.a, c2.b) == (MultiPoly.var("w"), -2 * MultiPoly.var("u"))
    c1 = fol.chart("Z1")
    assert (c1.a, c1.b) == (MultiPoly.var("t"), -2 * MultiPoly.var("s"))


def test_from_affine_worked_example():
    fol = ProjectiveFoliation.from_affine(Foliation(X ** 2 - Y ** 3, X * Y ** 2))
    assert fol.l == Z1 ** 2 * Z3 - Z2 ** 3
    assert fol.m == Z1 * Z2 ** 2
    assert fol.n == -Z1 ** 3
    assert fol.degree() == 2


def test_from_affine_chart_roundtrip():
    for base in (Foliation(X ** 2 - Y ** 3, X * Y ** 2), jouanolou(1), jouanolou(2)):
        back = ProjectiveFoliation.from_affine(base).chart("Z3")
        assert (back.a, back.b) == (base.a, base.b)


def test_from_affine_euler_holds_by_construction():
    fol = ProjectiveFoliation.from_affine(jouanolou(2))
    euler = Z1 * fol.l + Z2 * fol.m + Z3 * fol.n
    assert euler.is_zero()


def test_jouanolou_homogeneous_sides():
    fol = ProjectiveFoliation.from_affine(jouanolou(1))
    assert fol.l == Z1 * Z2 - Z3 ** 2
    assert fol.m == Z2 * Z3 - Z1 ** 2
    assert fol.n == Z1 * Z3 - Z2 ** 2


def test_jouanolou_no_points_at_infinity():
    for d in (1, 2):
        fol = ProjectiveFoliation.from_affine(jouanolou(d))
        pts = fol.singular_points()
        assert len(pts) == d * d + d + 1
        assert all(not p.is_infinite() for p in pts)


def test_jouanolou_bezout():
    for d in (1, 2):
        fol = ProjectiveFoliation.from_affine(jouanolou(d))
        assert fol.check_bezout() == d * d + d + 1


def test_line_pencil_single_singularity():
    pts = line_pencil().singular_points()
    assert len(pts) == 1
    p = pts[0]
    assert p.exact
    assert p.coords == (ZERO, ONE, ZERO)
    assert p.chart == "Z2"
    assert line_pencil().milnor_number(p) == 1
    assert line_pencil().check_bezout() == 1


def test_conic_pencil_three_singularities():
    fol = conic_pencil()
    pts = fol.singular_points()
    coords = {p.coords for p in pts}
    assert coords == {
        (ZERO, ZERO, ONE), (ZERO, ONE, ZERO), (ONE, ZERO, ZERO)}
    assert all(p.exact for p in pts)
    assert fol.check_bezout() == 3


def test_circle_pencil_gaussian_points_at_infinity():
    # x dx + y dy has concentric circles as leaves; at infinity it is
    # singular exactly at the two circular points [i : 1 : 0], [-i : 1 : 0]
    fol = ProjectiveFoliation.from_affine(Foliation(X, Y))
    pts = fol.singular_points()
    assert len(pts) == 3
    inf = sorted((p for p in pts if p.is_infinite()),
                 key=lambda p: str(p.coords[0]))
    assert all(p.exact for p in inf)
    assert {p.coords[0] for p in inf} == {G(0, 1), G(0, -1)}
    assert fol.check_bezout() == 3


def test_milnor_requires_exact_point():
    fol = ProjectiveFoliation.from_affine(Foliation(Y - X ** 2, Y - 2))
    pts = fol.singular_points()
    numeric = [p for p in pts if not p.exact]
    assert numeric
    with pytest.raises(UnsupportedInputError):
        fol.milnor_number(numeric[0])


def reference_from_affine(fol: Foliation):
    """The homogeneous triple of fol divided by the gcd of all three."""
    deg = fol.degree()
    sub = {"x": Z1, "y": Z2}
    ah = fol.a.substitute_poly(sub).homogenize("Z3", deg)
    bh = fol.b.substitute_poly(sub).homogenize("Z3", deg)
    triple = [Z3 * ah, Z3 * bh, -(Z1 * ah + Z2 * bh)]
    common = poly_gcd(poly_gcd(triple[0], triple[1]), triple[2])
    return [exact_divide(p, common) for p in triple]


gauss_ints = st.builds(GaussRational, st.integers(-2, 2), st.integers(-1, 1))


def affine_poly(draw, degree):
    exps = [(i, j) for i in range(degree + 1) for j in range(degree + 1)
            if i + j <= degree]
    terms = draw(st.dictionaries(st.sampled_from(exps), gauss_ints, max_size=4))
    return MultiPoly(("x", "y"), terms)


@st.composite
def affine_foliations(draw):
    """Gaussian-integer forms of degree <= 3, some with a factor shared by
    both coefficients, some whose line at infinity is not invariant (so
    Z3 divides the homogeneous triple and the degree drops)."""
    a, b = affine_poly(draw, 2), affine_poly(draw, 2)
    if draw(st.booleans()):
        top = affine_poly(draw, 1)
        a, b = a + Y * top * Y, b - X * top * Y
    if draw(st.booleans()):
        shared = affine_poly(draw, 1)
        assume(not shared.is_zero())
        a, b = a * shared, b * shared
    assume(not (a.is_zero() and b.is_zero()))
    return Foliation(a, b)


@settings(deadline=None, max_examples=100)
@given(affine_foliations())
def test_from_affine_divides_out_every_common_factor(fol):
    got = ProjectiveFoliation.from_affine(fol)
    ref = reference_from_affine(fol)
    k = next(i for i, p in enumerate(ref) if not p.is_zero())
    mine = (got.l, got.m, got.n)
    e, c = next(iter(ref[k].terms.items()))
    unit = mine[k].terms[e] / c
    assert list(mine) == [p * unit for p in ref]


@settings(deadline=None, max_examples=50)
@given(affine_foliations(), st.sampled_from([Z1, Z2, Z3, Z1 - 2 * Z3, Z2 + Z3]))
def test_validation_rejects_any_shared_factor(fol, factor):
    pfol = ProjectiveFoliation.from_affine(fol)
    with pytest.raises(ValueError, match="share"):
        ProjectiveFoliation(pfol.l * factor, pfol.m * factor, pfol.n * factor)


@pytest.mark.xfail(raises=UnsupportedInputError, strict=True,
                   reason="the divisor sieve's norm cap drops an exact "
                          "Gaussian-integer point to the numeric path")
def test_known_defect_sieve_cap_drops_a_degenerate_point():
    # every affine singular point is a Gaussian integer, but the eliminant
    # at (2 - 2i, 2), of Milnor number 2 * 3, has constant term of norm
    # 8^6 > 200000, so the point comes back numeric and uncertified
    fol = Foliation((X - G(2, -2)) ** 2 * X, (Y - 2) ** 3)
    assert ProjectiveFoliation.from_affine(fol).check_bezout() == 13
