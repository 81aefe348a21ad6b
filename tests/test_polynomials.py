"""Exact algebra layer: Gaussian rationals, polynomials, rational functions.

Oracle values (resultants, gcds) were derived by hand from the Sylvester
determinant and recorded here before the implementation existed.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from residua import polynomials
from residua.rationals import GaussRational, I, ONE, gauss_sqrt, gauss_int_gcd
from residua.polynomials import (
    MultiPoly,
    RatFunc,
    TermOrder,
    exact_divide,
    format_poly,
    gaussian_content,
    poly_gcd,
    resultant,
    sort_vars,
)

X = MultiPoly.var("x")
Y = MultiPoly.var("y")


def c(re, im=0):
    return GaussRational(re, im)


# -- Gaussian rationals -------------------------------------------------


def test_gauss_basic_identities():
    assert (ONE + I) * (ONE - I) == c(2)
    assert I * I == c(-1)
    assert (c(3, 4) / c(3, 4)).is_one()
    assert c(1, 2).conjugate() == c(1, -2)
    assert c(3, 4).norm() == Fraction(25)
    assert str(c(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4*i"
    assert str(c(0, 1)) == "i"
    assert str(c(-2)) == "-2"


def test_gauss_field_axioms_random():
    rng = random.Random(20260821)
    def rand():
        return c(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                 Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
    for _ in range(300):
        a, b, d = rand(), rand(), rand()
        assert a * (b + d) == a * b + a * d
        assert (a + b) + d == a + (b + d)
        assert a * b == b * a
        if not a.is_zero():
            assert (a * a.inverse()).is_one()
            assert a ** -2 == (a.inverse()) ** 2


def test_gauss_sqrt():
    assert gauss_sqrt(c(0)) == c(0)
    assert gauss_sqrt(c(Fraction(9, 4))) == c(Fraction(3, 2))
    assert gauss_sqrt(c(-4)) == c(0, 2)
    # (1+i)^2 = 2i
    r = gauss_sqrt(c(0, 2))
    assert r is not None and r * r == c(0, 2)
    # -3 has no square root in Q(i)
    assert gauss_sqrt(c(-3)) is None
    assert gauss_sqrt(c(1, 1)) is None


def test_gauss_int_gcd():
    assert gauss_int_gcd((4, 0), (6, 0)) == (2, 0)
    # 5 = (2+i)(2-i); gcd(5, 2+i) is 2+i up to a unit
    g = gauss_int_gcd((5, 0), (2, 1))
    assert g[0] * g[0] + g[1] * g[1] == 5


# -- polynomial ring ----------------------------------------------------


def rand_poly(rng, nvars=2, max_terms=3, max_deg=3):
    vars = ("x", "y", "z")[:nvars]
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in vars)
        terms[e] = GaussRational(rng.randint(-5, 5), rng.randint(-2, 2))
    return MultiPoly(vars, terms)


def test_ring_examples():
    p = X + Y
    q = X - Y
    assert p + q == 2 * X
    assert p * q == X * X - Y * Y
    assert (X + 1) ** 3 == X ** 3 + 3 * X ** 2 + 3 * X + 1
    ip = MultiPoly.const(I)
    assert (X + ip) * (X - ip) == X * X + 1
    assert (p - p).is_zero()


def test_ring_axioms_random_triples():
    rng = random.Random(77)
    for _ in range(1000):
        a, b, d = (rand_poly(rng) for _ in range(3))
        assert a * (b + d) == a * b + a * d
        assert (a * b) * d == a * (b * d)
        assert a + b == b + a
        assert a * b == b * a


def test_diff_leibniz_random():
    rng = random.Random(78)
    for _ in range(200):
        a, b = rand_poly(rng), rand_poly(rng)
        for v in ("x", "y"):
            lhs = (a * b).diff(v)
            rhs = a.diff(v) * b + a * b.diff(v)
            assert lhs == rhs


def test_diff_examples():
    p = X ** 2 * Y - 2 * X
    assert p.diff("x") == 2 * X * Y - 2
    assert p.diff("y") == X ** 2
    assert p.diff("z").is_zero()


def test_degree_and_order():
    p = X ** 2 * Y + X
    assert p.degree() == 3
    assert p.degree_in("x") == 2
    assert p.degree_in("y") == 1
    assert p.order_at_zero() == 1
    assert MultiPoly.const(0).degree() == -1
    assert MultiPoly.const(0).order_at_zero() == float("inf")


def test_eval_and_shift():
    p = X ** 2 + Y
    assert p.eval_exact({"x": c(2), "y": c(-1)}) == c(3)
    shifted = p.shift({"x": c(1), "y": c(0)})
    # p(x+1, y) = x^2 + 2x + 1 + y
    assert shifted == X ** 2 + 2 * X + 1 + Y
    assert shifted.eval_exact({"x": c(0), "y": c(0)}) == c(1)
    with pytest.raises(ValueError):
        p.shift({"q": c(1)})


def test_substitute_poly_and_ratfunc():
    p = X * Y + 1
    q = p.substitute_poly({"y": X ** 2})
    assert q == X ** 3 + 1
    r = p.substitute({"y": RatFunc(MultiPoly.const(1), X)})
    assert r == RatFunc.coerce(2)  # x*(1/x) + 1
    r2 = (X * Y + Y).substitute({"y": RatFunc(MultiPoly.const(1), X)})
    assert r2 == RatFunc(X + 1, X)


def test_homogenize_dehomogenize():
    p = X ** 2 - Y ** 3
    h = p.homogenize("z", 3)
    Z = MultiPoly.var("z")
    assert h == X ** 2 * Z - Y ** 3
    assert h.is_homogeneous()
    assert h.dehomogenize("z") == p
    with pytest.raises(ValueError):
        p.homogenize("z", 2)
    with pytest.raises(ValueError):
        h.homogenize("z", 5)


def test_homogenize_roundtrip_random():
    rng = random.Random(79)
    for _ in range(100):
        p = rand_poly(rng, nvars=2)
        if p.is_zero():
            continue
        h = p.homogenize("z", p.degree() + rng.randint(0, 2))
        assert h.is_homogeneous()
        assert h.dehomogenize("z") == p


# -- term orders --------------------------------------------------------


def test_term_order_lex():
    order = TermOrder(("x", "y"))
    p = X + Y ** 5
    assert p.leading_exponent(order) == (1, 0)
    order_yx = TermOrder(("y", "x"))
    assert p.leading_exponent(order_yx) == (0, 5)


def test_term_order_multiplicative_random():
    rng = random.Random(80)
    order = TermOrder(("x", "y", "z"))
    vars = ("x", "y", "z")
    for _ in range(300):
        e1 = tuple(rng.randint(0, 6) for _ in vars)
        e2 = tuple(rng.randint(0, 6) for _ in vars)
        f = tuple(rng.randint(0, 6) for _ in vars)
        k1, k2 = order.key(vars, e1), order.key(vars, e2)
        s1 = order.key(vars, tuple(a + b for a, b in zip(e1, f)))
        s2 = order.key(vars, tuple(a + b for a, b in zip(e2, f)))
        if k1 < k2:
            assert s1 < s2
        elif k1 > k2:
            assert s1 > s2
        else:
            assert s1 == s2


# -- division, gcd, content ---------------------------------------------


def test_exact_divide():
    p = (X + Y) * (X - Y) * (X ** 2 + 1)
    assert exact_divide(p, X + Y) == (X - Y) * (X ** 2 + 1)
    assert exact_divide(p, X + 2) is None
    assert exact_divide(MultiPoly.const(0), X) == MultiPoly.const(0)


def test_poly_gcd_examples():
    a = (X + Y) ** 2 * (X - Y)
    b = (X + Y) * (X ** 2 + 1)
    assert poly_gcd(a, b) == X + Y
    assert poly_gcd(X, Y) == 1
    assert poly_gcd(MultiPoly.const(0), a) == a.monic()
    # gcd is monic in the global order
    g = poly_gcd(2 * X + 2 * Y, 4 * X + 4 * Y)
    assert g == X + Y


def test_poly_gcd_random_products():
    rng = random.Random(81)
    for _ in range(60):
        g = rand_poly(rng, max_terms=2, max_deg=2)
        a = rand_poly(rng, max_terms=2, max_deg=2)
        b = rand_poly(rng, max_terms=2, max_deg=2)
        if g.is_zero() or a.is_zero() or b.is_zero():
            continue
        assert poly_gcd(g * a, g * b) == (g * poly_gcd(a, b)).monic()


def test_poly_gcd_calls_do_not_depend_on_term_order(monkeypatch):
    # the traced polynomials.gcd_calls counts these recursive calls
    def calls_of(fn, *args):
        calls = []
        original = polynomials.poly_gcd

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(polynomials, "poly_gcd", spy)
        try:
            return fn(*args), len(calls)
        finally:
            monkeypatch.undo()

    def reordered(p):
        return MultiPoly(p.vars, dict(reversed(list(p.terms.items()))))

    common = X * Y + 2 * Y - 1
    a = common * (X ** 2 * Y + 3 * Y ** 2 - X + 2)
    b = common * (X * Y ** 2 - 2 * X + Y ** 3 + 1) * (Y + 1)
    gcd, calls = calls_of(polynomials.poly_gcd, a, b)
    assert gcd == common.monic()
    assert calls_of(polynomials.poly_gcd, reordered(a), reordered(b)) == (gcd, calls)
    # the content fold stops at the constant top coefficient
    p = 3 * X ** 2 + (Y ** 3 + Y) * X + Y ** 4 - 1
    assert calls_of(polynomials._content_wrt, p, "x") == (MultiPoly.const(1), 1)


def test_gaussian_content():
    polys = [-4 * X ** 3, 2 * Y]
    assert gaussian_content(polys) == c(2)
    polys = [MultiPoly.const(c(Fraction(1, 2))), MultiPoly.const(c(Fraction(3, 2)))]
    assert gaussian_content(polys) == c(Fraction(1, 2))


# -- resultants ---------------------------------------------------------


def test_resultant_spec_values():
    # Res_y(y - x^2, 1 - x*y) = 1 - x^3
    r = resultant(Y - X ** 2, 1 - X * Y, "y")
    assert r == 1 - X ** 3
    # Res_x(x, x - 1) = -1
    r2 = resultant(X, X - 1, "x")
    assert r2 == MultiPoly.const(-1)


def test_resultant_multiplicative_random():
    rng = random.Random(82)
    done = 0
    while done < 40:
        f = rand_poly(rng, max_terms=2, max_deg=2)
        g = rand_poly(rng, max_terms=2, max_deg=2)
        h = rand_poly(rng, max_terms=2, max_deg=2)
        if f.degree_in("x") < 1 or g.degree_in("x") < 1 or h.degree_in("x") < 1:
            continue
        lhs = resultant(f * g, h, "x")
        rhs = resultant(f, h, "x") * resultant(g, h, "x")
        assert lhs == rhs
        done += 1


def test_resultant_common_root_vanishes():
    f = (X - 1) * (Y + X)
    g = (X - 1) * (X + 2)
    assert resultant(f, g, "x").is_zero() or poly_gcd(f, g).degree() > 0
    # coprime in x: resultant nonzero at generic y; det [[1,-y],[1,y]] = 2y
    r = resultant(X - Y, X + Y, "x")
    assert r == 2 * Y


# -- rational functions -------------------------------------------------


def test_ratfunc_reduction():
    r = RatFunc(X ** 2 - Y ** 2, X - Y)
    assert r.is_poly()
    assert r.as_poly() == X + Y
    r2 = RatFunc(X, 2 * X * Y)
    # denominator monic: x/(2xy) = (1/2)/y
    assert r2.num == MultiPoly.const(Fraction(1, 2))
    assert r2.den == Y


def test_ratfunc_arith():
    one_over_x = RatFunc(MultiPoly.const(1), X)
    r = one_over_x + RatFunc(MultiPoly.const(1), Y)
    assert r == RatFunc(X + Y, X * Y)
    assert (one_over_x * X).as_poly() == MultiPoly.const(1)
    assert one_over_x ** -1 == RatFunc.coerce(X)
    d = one_over_x.diff("x")
    assert d == -RatFunc(MultiPoly.const(1), X ** 2)


def test_ratfunc_field_random():
    rng = random.Random(83)
    done = 0
    while done < 120:
        a = rand_poly(rng, max_terms=2, max_deg=2)
        b = rand_poly(rng, max_terms=2, max_deg=2)
        d = rand_poly(rng, max_terms=2, max_deg=2)
        if b.is_zero() or d.is_zero():
            continue
        r1 = RatFunc(a, b)
        r2 = RatFunc(d, b)
        assert (r1 + r2) * RatFunc.coerce(b) == RatFunc.coerce(a + d)
        if not r1.is_zero():
            assert (r1 / r1) == RatFunc.coerce(1)
        done += 1


# -- printing -----------------------------------------------------------


def test_format_poly_canonical():
    p = X ** 2 * Y - 2 * X + MultiPoly.const(Fraction(1, 2))
    assert format_poly(p) == "x^2*y - 2*x + 1/2"
    q = -X + 1
    assert format_poly(q) == "-x + 1"
    assert format_poly(MultiPoly.const(0)) == "0"
    mixed = MultiPoly.const(c(1, 2)) * X
    assert format_poly(mixed) == "(1+2*i)*x"
    pure_im = 3 * I * X
    assert format_poly(pure_im * 1) == "3*i*x"


def test_format_poly_graded_order():
    # graded ordering puts total degree first
    p = X ** 3 + X * Y + Y
    assert format_poly(p) == "x^3 + x*y + y"


# -- substitution and shift, against term-by-term products --------------

T = MultiPoly.var("t")
gauss_ints = st.builds(GaussRational, st.integers(-3, 3), st.integers(-2, 2))
nonzero_gauss_ints = gauss_ints.filter(bool)
small_gauss_rationals = st.builds(
    lambda a, b, d: GaussRational(Fraction(a, d), Fraction(b, d)),
    st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 3))
XYT = ("x", "y", "t")
MONOMIALS = [(i, j, k) for i in range(3) for j in range(3) for k in range(2)]


def polys_in(vars, monomials, max_size=5):
    """A polynomial over vars, held in a random order of its variables."""
    return st.tuples(
        st.dictionaries(st.sampled_from(monomials), nonzero_gauss_ints,
                        max_size=max_size),
        st.permutations(vars),
    ).map(lambda tp: MultiPoly(vars, tp[0]).align_to(tp[1]))


# an image with at most one term: zero, a constant or c * monomial
monomial_images = st.one_of(
    st.just(MultiPoly.const(0)),
    nonzero_gauss_ints.map(MultiPoly.const),
    st.tuples(nonzero_gauss_ints, st.sampled_from(MONOMIALS)).map(
        lambda cm: MultiPoly(XYT, {cm[1]: cm[0]})),
    st.sampled_from([X, Y, T, T * X, MultiPoly.var("s") * Y]),
)


def substituted_by_products(p, images):
    """The reference: every term expanded by polynomial products."""
    out = MultiPoly.const(0)
    for e, coeff in p.terms.items():
        term = MultiPoly.const(coeff)
        for v, k in zip(p.vars, e):
            term = term * images.get(v, MultiPoly.var(v)) ** k
        out = out + term
    return out


@settings(deadline=None, max_examples=150)
@given(polys_in(XYT, MONOMIALS),
       st.dictionaries(st.sampled_from(XYT), monomial_images, max_size=3))
def test_substitute_monomial_images_against_products(p, images):
    out = p.substitute_poly(images)
    assert out == substituted_by_products(p, images)
    assert out.vars == sort_vars(out.vars)


@settings(deadline=None, max_examples=50)
@given(polys_in(XYT, MONOMIALS))
def test_substitute_swap_and_chart_maps(p):
    swap = {"x": Y, "y": X}
    assert p.substitute_poly(swap) == substituted_by_products(p, swap)
    assert p.substitute_poly(swap).substitute_poly(swap) == p
    chart = {"y": T * X}
    assert p.substitute_poly(chart) == substituted_by_products(p, chart)


@settings(deadline=None, max_examples=100)
@given(polys_in(XYT, MONOMIALS),
       st.dictionaries(st.sampled_from(XYT), small_gauss_rationals),
       st.tuples(small_gauss_rationals, small_gauss_rationals,
                 small_gauss_rationals))
def test_shift_is_evaluation_at_the_moved_point(f, point, z):
    z = dict(zip(XYT, z))
    moved = {v: z[v] + point.get(v, 0) for v in XYT}
    shifted = f.shift(point)
    assert shifted.eval_exact(z) == f.eval_exact(moved)
    assert shifted.vars == sort_vars(shifted.vars)


@settings(deadline=None, max_examples=100)
@given(polys_in(XYT, MONOMIALS),
       st.dictionaries(st.sampled_from(XYT), small_gauss_rationals))
def test_shift_back_is_identity(f, point):
    back = {v: -val for v, val in point.items()}
    assert f.shift(point).shift(back) == f


def test_arithmetic_sorts_variables_in_global_order():
    # default_order reads precedence from vars, so a result must not keep
    # an operand's non-global order, even when both operands share it
    p = (X + 2 * Y).align_to(("y", "x"))
    for r in (p + p, p * p, p - 1, p.shift({"x": c(1)})):
        assert r.vars == ("x", "y")
    assert (p * p).monic() == (X + 2 * Y) ** 2
