import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from residua import darboux
from residua.rationals import GaussRational
from residua.polynomials import MultiPoly, RatFunc
from residua.foliation import Foliation
from residua.darboux import (
    DarbouxSpec,
    check_first_integral,
    logarithmic_differential,
    one_form_from_factored,
)
from residua.indices import bb_from_factored, cs_from_factored

X = MultiPoly.var("x")
Y = MultiPoly.var("y")


def G(re, im=0):
    return GaussRational(Fraction(re), Fraction(im))


def test_spec_validation():
    with pytest.raises(ValueError):
        DarbouxSpec([(0, 2)])
    spec = DarbouxSpec([(X, 1)], exp_part=RatFunc(Y, X))
    assert len(spec.factors) == 1
    assert spec.exp_part is not None


def test_logarithmic_differential_of_monomial():
    spec = DarbouxSpec([(X, 1), (Y, 2)])
    p, q, d = logarithmic_differential(spec)
    assert p == Y
    assert q == 2 * X
    assert d == X * Y


def test_logarithmic_differential_skips_constants():
    spec = DarbouxSpec([(RatFunc.coerce(3), 5)])
    p, q, d = logarithmic_differential(spec)
    assert p.is_zero() and q.is_zero()
    assert d == MultiPoly.const(1)


def test_logarithmic_differential_exponential_part():
    spec = DarbouxSpec([(3, 5)], exp_part=RatFunc(-Y, X))
    p, q, d = logarithmic_differential(spec)
    assert p == Y
    assert q == -X
    assert d == X ** 2


gauss_ints = st.builds(GaussRational, st.integers(-3, 3), st.integers(-2, 2))
nonzero_gauss_ints = gauss_ints.filter(bool)


def polys(degree):
    monomials = [(i, j) for i in range(degree + 1) for j in range(degree + 1)
                 if i + j <= degree]
    return st.dictionaries(st.sampled_from(monomials), nonzero_gauss_ints,
                           min_size=1, max_size=3).map(
        lambda terms: MultiPoly(("x", "y"), terms))


# a linear polynomial, constant or not, or a quotient of two
bases = st.one_of(polys(1), st.tuples(polys(1), polys(1)).map(
    lambda nd: RatFunc(*nd)))


@st.composite
def specs(draw):
    """A spec with up to three factors, one of them possibly repeated,
    and an optional exponential part: up to three distinct
    denominators."""
    factors = draw(st.lists(st.tuples(bases, nonzero_gauss_ints), max_size=2))
    if factors and draw(st.booleans()):
        factors.append(draw(st.sampled_from(factors)))
    exp_part = draw(st.one_of(st.none(), bases))
    return DarbouxSpec(factors, exp_part)


def log_differential_in_ratfuncs(spec, vx, vy):
    """The reference: sum of l * df/f plus de, in reduced fractions."""
    tx, ty = RatFunc.coerce(0), RatFunc.coerce(0)
    for f, ell in spec.factors:
        tx = tx + f.diff(vx) / f * ell
        ty = ty + f.diff(vy) / f * ell
    if spec.exp_part is not None:
        tx = tx + spec.exp_part.diff(vx)
        ty = ty + spec.exp_part.diff(vy)
    return tx, ty


@settings(deadline=None, max_examples=60)
@given(specs())
def test_logarithmic_differential_against_ratfunc_sum(spec):
    p, q, d = logarithmic_differential(spec)
    assert not d.is_zero()
    tx, ty = log_differential_in_ratfuncs(spec, "x", "y")
    assert p * tx.den == tx.num * d
    assert q * ty.den == ty.num * d


def test_check_first_integral_goes_through_log_differential(monkeypatch):
    # the per-layer figure darboux.log_diff is taken on this call
    calls = []
    original = darboux.logarithmic_differential

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(darboux, "logarithmic_differential", counted)
    assert check_first_integral(Foliation(Y, X), DarbouxSpec([(X, 1), (Y, 1)]))
    assert len(calls) == 1


@settings(deadline=None, max_examples=30)
@given(polys(2), polys(2))
def test_rename_is_invertible(a, b):
    fol = Foliation(a, b)
    assert fol.rename(("x", "y")) is fol
    swapped = fol.rename(("y", "x"))
    assert swapped.vars() == ("y", "x")
    back = swapped.rename(("x", "y"))
    assert back.vars() == ("x", "y")
    assert back.a == a and back.b == b


def test_rational_power_integral():
    # leaves of y dx + x dy are the hyperbolas x y = c
    fol = Foliation(Y, X)
    assert check_first_integral(fol, DarbouxSpec([(X, 1), (Y, 1)]))
    assert check_first_integral(fol, DarbouxSpec([(X * Y, 7)]))
    assert not check_first_integral(fol, DarbouxSpec([(X, 1), (Y, 2)]))


def test_quotient_integral_of_line_field():
    fol = Foliation.from_vector_field(X, Y)
    assert check_first_integral(fol, DarbouxSpec([(RatFunc(Y, X), 1)]))
    assert check_first_integral(fol, DarbouxSpec([(X, 1), (Y, -1)]))


def test_exponential_only_integral():
    fol = Foliation.from_vector_field(X, Y)
    spec = DarbouxSpec([], exp_part=RatFunc(Y, X))
    assert check_first_integral(fol, spec)


def test_trivial_spec_never_verifies():
    fol = Foliation(Y, X)
    assert not check_first_integral(fol, DarbouxSpec([]))
    assert not check_first_integral(fol, DarbouxSpec([(5, 3)]))


def test_gaussian_exponent_integral():
    i = G(0, 1)
    fol = Foliation(i * Y, X)
    assert check_first_integral(fol, DarbouxSpec([(X, i), (Y, 1)]))
    assert not check_first_integral(fol, DarbouxSpec([(X, 1), (Y, 1)]))


def test_exponential_factor_integral():
    fol = Foliation(X ** 2 - X * Y - Y ** 3, X ** 2 + X * Y ** 2)
    f2 = 2 * X ** 2 + X + 2 * X * Y + Y ** 2
    spec = DarbouxSpec([(RatFunc(f2, X ** 2), 1)], exp_part=RatFunc(-Y, X))
    assert check_first_integral(fol, spec)


def test_exponential_factor_integral_quadratic_pole():
    fol = Foliation(X * Y - X ** 2 * Y - Y ** 3, X ** 3 + X * Y ** 2)
    spec = DarbouxSpec(
        [(RatFunc(Y, X), 1)],
        exp_part=RatFunc(Y ** 2 - 2 * X, 2 * X ** 2),
    )
    assert check_first_integral(fol, spec)


def test_candidate_fails_on_unrelated_form():
    fol = Foliation(X ** 2 + X * Y ** 2, X + Y ** 2 - X ** 2 * Y)
    f2 = 2 * X ** 2 + X + 2 * X * Y + Y ** 2
    s2 = DarbouxSpec([(RatFunc(f2, X ** 2), 1)], exp_part=RatFunc(-Y, X))
    s3 = DarbouxSpec(
        [(RatFunc(Y, X), 1)],
        exp_part=RatFunc(Y ** 2 - 2 * X, 2 * X ** 2),
    )
    assert not check_first_integral(fol, s2)
    assert not check_first_integral(fol, s3)


def test_scaled_spec_still_verifies():
    # H and H^2 cut out the same foliation
    fol = Foliation(X ** 2 - X * Y - Y ** 3, X ** 2 + X * Y ** 2)
    f2 = 2 * X ** 2 + X + 2 * X * Y + Y ** 2
    spec = DarbouxSpec(
        [(RatFunc(f2, X ** 2), 2)], exp_part=RatFunc(-2 * Y, X)
    )
    assert check_first_integral(fol, spec)


def test_one_form_from_factored_frozen():
    fol = one_form_from_factored([(Y - X ** 2, 1), (Y + X ** 2, 1)])
    assert fol.a == -2 * X ** 3
    assert fol.b == Y
    assert fol.vars() == ("x", "y")


def test_one_form_simple_node():
    fol = one_form_from_factored([(X, 1), (Y, 1)])
    assert fol.a == Y
    assert fol.b == X


def test_one_form_scaling_invariance():
    a = one_form_from_factored([(X, 1), (Y, 1)])
    b = one_form_from_factored([(X, 2), (Y, 2)])
    assert a.a == b.a and a.b == b.b


def test_one_form_removes_common_factor():
    fol = one_form_from_factored([(X, 1), (X * Y, 1)])
    assert fol.a == 2 * Y
    assert fol.b == X


def test_one_form_validation():
    with pytest.raises(ValueError):
        one_form_from_factored([])
    with pytest.raises(ValueError):
        one_form_from_factored([(MultiPoly.const(2), 1)])
    with pytest.raises(ValueError):
        one_form_from_factored([(X, 0)])
    single = one_form_from_factored([(X, 1)])
    assert single.a == MultiPoly.const(1)
    assert single.b.is_zero()


@pytest.mark.parametrize("factors, message", [
    ([(MultiPoly.const(2), 1), (X, 1)], "constant factor in the product"),
    ([(X, 1), (Y, 0)], "zero exponent in the product"),
    ([], "empty factor list"),
])
@pytest.mark.parametrize("entry", [
    one_form_from_factored,
    bb_from_factored,
    lambda factors: cs_from_factored(factors, 0),
])
def test_factored_entry_points_reject_alike(entry, factors, message):
    with pytest.raises(ValueError, match=message):
        entry(factors)


def test_factored_products_verify_their_own_spec():
    rng = random.Random(20262)
    pool = [X, Y, X + Y, X - Y, Y - X ** 2, X ** 2 + Y + 1, X * Y - 1]
    for _ in range(25):
        k = rng.choice([2, 2, 3])
        idx = rng.sample(range(len(pool)), k)
        exps = [rng.choice([1, 2, 3, -1, G(0, 1)]) for _ in range(k)]
        facs = [(pool[i], e) for i, e in zip(idx, exps)]
        fol = one_form_from_factored(facs)
        spec = DarbouxSpec([(RatFunc.coerce(g), e) for g, e in facs])
        assert check_first_integral(fol, spec)
