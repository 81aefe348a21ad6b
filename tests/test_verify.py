from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from residua.exceptions import UnsupportedInputError
from residua.rationals import GaussRational
from residua.polynomials import MultiPoly
from residua.foliation import Foliation
from residua.projective import ProjectiveFoliation
from residua.darboux import one_form_from_factored
from residua.verify import (
    is_invariant_curve,
    is_invariant_line,
    transform,
    verify_baum_bott,
    verify_camacho_sad,
)

X = MultiPoly.var("x")
Y = MultiPoly.var("y")
Z1 = MultiPoly.var("Z1")
Z2 = MultiPoly.var("Z2")
Z3 = MultiPoly.var("Z3")


def G(re, im=0):
    return GaussRational(Fraction(re), Fraction(im))


def jouanolou(d: int) -> ProjectiveFoliation:
    return ProjectiveFoliation.from_affine(
        Foliation(X ** d * Y - 1, Y ** d - X ** (d + 1))
    )


def conic_pencil() -> ProjectiveFoliation:
    # level sets of Z1 Z2 / Z3^2
    return ProjectiveFoliation(Z2 * Z3, Z1 * Z3, -2 * Z1 * Z2)


def circle_pencil() -> ProjectiveFoliation:
    return ProjectiveFoliation.from_affine(Foliation(X, Y))


def test_baum_bott_total_jouanolou():
    for d, count in ((1, 3), (2, 7)):
        report = verify_baum_bott(jouanolou(d))
        assert report.kind == "baum_bott"
        assert report.target == G((d + 2) ** 2)
        assert len(report.contributions) == count
        assert not report.exact
        assert report.ok
        assert abs(report.total - (d + 2) ** 2) < 1e-6


def test_baum_bott_single_point_pencil():
    pencil = ProjectiveFoliation(Z3, MultiPoly.const(0), -Z1)
    report = verify_baum_bott(pencil)
    assert report.exact and report.ok
    assert report.total == G(4)
    (c,) = report.contributions
    assert c.point.chart == "Z2"
    assert c.value == G(4)


def test_baum_bott_concentrated_at_degenerate_point():
    pfol = ProjectiveFoliation.from_affine(Foliation(X ** 2 - Y ** 3, X * Y ** 2))
    report = verify_baum_bott(pfol)
    assert report.exact and report.ok
    assert report.total == G(16)
    (c,) = report.contributions
    assert not c.point.is_infinite()


def test_baum_bott_exact_split_between_charts():
    report = verify_baum_bott(conic_pencil())
    assert report.exact and report.ok
    assert report.total == G(9)
    values = sorted(str(c.value) for c in report.contributions)
    assert values == ["0", "9/2", "9/2"]


def test_baum_bott_gaussian_points():
    report = verify_baum_bott(circle_pencil())
    assert report.exact and report.ok
    assert report.total == G(9)


def test_invariant_lines_of_conic_pencil():
    pfol = conic_pencil()
    assert is_invariant_line(pfol, [1, 0, 0])
    assert is_invariant_line(pfol, [0, 1, 0])
    assert is_invariant_line(pfol, [0, 0, 1])
    assert not is_invariant_line(pfol, [1, 1, 1])


def test_invariant_line_only_at_low_degree():
    # degree one always leaves a line invariant; the degree two member
    # of the same family leaves none
    j1 = jouanolou(1)
    assert is_invariant_line(j1, [1, 1, 1])
    assert not any(
        is_invariant_line(j1, l) for l in ([1, 0, 0], [0, 1, 0], [0, 0, 1])
    )
    j2 = jouanolou(2)
    assert not any(
        is_invariant_line(j2, l)
        for l in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1])
    )


def test_invariant_line_gaussian_coefficients():
    i = G(0, 1)
    pfol = circle_pencil()
    assert is_invariant_line(pfol, [1, i, 0])
    assert is_invariant_line(pfol, [1, -i, 0])
    assert not is_invariant_line(pfol, [1, 1, 0])


def test_invariant_line_rejects_zero():
    with pytest.raises(ValueError):
        is_invariant_line(conic_pencil(), [0, 0, 0])


def test_camacho_sad_conic_pencil_lines():
    pfol = conic_pencil()
    for line in ([1, 0, 0], [0, 1, 0]):
        report = verify_camacho_sad(pfol, line)
        assert report.kind == "camacho_sad"
        assert report.exact and report.ok
        assert report.total == G(1)
        assert sorted(str(c.value) for c in report.contributions) == ["-1", "2"]
    report = verify_camacho_sad(pfol, [0, 0, 1])
    assert report.exact and report.ok
    assert report.total == G(1)
    assert [str(c.value) for c in report.contributions] == ["1/2", "1/2"]


def test_camacho_sad_gaussian_line():
    report = verify_camacho_sad(circle_pencil(), [1, G(0, 1), 0])
    assert report.exact and report.ok
    assert report.total == G(1)


def test_camacho_sad_rejects_non_invariant_line():
    with pytest.raises(ValueError):
        verify_camacho_sad(conic_pencil(), [1, 1, 1])


def test_camacho_sad_reports_unsupported_positions():
    # the line passes through singular points with non-rational
    # coordinates, which the exact index cannot reach
    with pytest.raises(UnsupportedInputError):
        verify_camacho_sad(jouanolou(1), [1, 1, 1])
    w = one_form_from_factored([(X, 1), (Y ** 2 - X - 2, 1)])
    pw = ProjectiveFoliation.from_affine(w)
    assert is_invariant_line(pw, [1, 0, 0])
    with pytest.raises(UnsupportedInputError):
        verify_camacho_sad(pw, [1, 0, 0])


def test_transform_preserves_verification():
    # swap two coordinates and verify the moved line
    pfol = conic_pencil()
    m = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    moved = transform(pfol, m)
    report = verify_camacho_sad(moved, [1, 0, 0])
    assert report.total == G(1)
    assert verify_baum_bott(moved).total == G(9)


def test_invariant_curve_cusp_form():
    fol = Foliation(X ** 2 - Y ** 3, X * Y ** 2)
    assert is_invariant_curve(fol, X)
    assert not is_invariant_curve(fol, Y)


def test_invariant_curve_conic_level():
    center = Foliation(X, Y)
    assert is_invariant_curve(center, X ** 2 + Y ** 2)
    assert not is_invariant_curve(center, X)
    radial = Foliation.from_vector_field(X, Y)
    assert is_invariant_curve(radial, X)
    assert is_invariant_curve(radial, Y)
    assert is_invariant_curve(radial, X ** 2 + Y ** 2)


def test_invariant_curve_from_integral():
    fol = Foliation(X ** 2 - X * Y - Y ** 3, X ** 2 + X * Y ** 2)
    f2 = 2 * X ** 2 + X + 2 * X * Y + Y ** 2
    assert is_invariant_curve(fol, f2)
    assert is_invariant_curve(fol, X)
    assert not is_invariant_curve(fol, Y)


def test_invariant_curve_validation():
    fol = Foliation(Y, X)
    with pytest.raises(ValueError):
        is_invariant_curve(fol, MultiPoly.const(2))
    with pytest.raises(ValueError):
        is_invariant_curve(fol, MultiPoly.var("u"))


unit_square = st.builds(GaussRational, st.integers(-1, 1), st.integers(-1, 1))


@st.composite
def coordinate_products(draw):
    """a = prod (x - p_i), b = prod (y - q_j) over n <= 3 Gaussian
    integers in [-1, 1]^2 each; a value repeated r times in a and s times
    in b gives a point of Milnor number r * s."""
    n = draw(st.integers(1, 3))

    def roots():
        out = [draw(unit_square)]
        for _ in range(n - 1):
            out.append(out[-1] if draw(st.booleans()) else draw(unit_square))
        return out

    a, b = MultiPoly.const(1), MultiPoly.const(1)
    for p in roots():
        a = a * (X - p)
    for q in roots():
        b = b * (Y - q)
    return n, Foliation(a, b)


@settings(deadline=None, max_examples=60)
@given(coordinate_products())
def test_totals_at_degenerate_points(case):
    n, fol = case
    pfol = ProjectiveFoliation.from_affine(fol)
    assert pfol.check_bezout() == n * n + n + 1
    report = verify_baum_bott(pfol)
    assert report.ok
