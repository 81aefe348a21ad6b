"""Property tests of the Q(i) field against a Fraction-pair reference."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from residua.rationals import GaussRational

settings.register_profile("residua", deadline=None)
settings.load_profile("residua")

# -- reference: Q(i) as a pair of Fractions ---------------------------------


def ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def ref_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_inverse(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def ref_pow(x, n):
    if n < 0:
        return ref_pow(ref_inverse(x), -n)
    out = (Fraction(1), Fraction(0))
    for _ in range(n):
        out = ref_mul(out, x)
    return out


def parts(z: GaussRational):
    """The value as a Fraction pair, after checking its triple is reduced."""
    a, b, d = z.triple
    assert d > 0 and gcd(a, b, d) == 1
    return (z.re, z.im)


# -- strategies ---------------------------------------------------------------

rationals = st.one_of(
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)),
    st.builds(Fraction, st.integers(), st.integers(min_value=1)),
)
pairs = st.tuples(rationals, rationals)
nonzero_pairs = pairs.filter(lambda p: p != (0, 0))
scalars = st.one_of(st.integers(-10 ** 6, 10 ** 6), rationals)


def G(pair):
    return GaussRational(*pair)


# -- field operations -----------------------------------------------------------


@given(pairs, pairs)
def test_add_sub_mul_match_reference(x, y):
    assert parts(G(x) + G(y)) == ref_add(x, y)
    assert parts(G(x) - G(y)) == ref_sub(x, y)
    assert parts(G(x) * G(y)) == ref_mul(x, y)


@given(pairs, nonzero_pairs)
def test_inverse_and_division_match_reference(x, y):
    assert parts(G(y).inverse()) == ref_inverse(y)
    assert parts(G(x) / G(y)) == ref_mul(x, ref_inverse(y))
    assert G(x) / G(y) * G(y) == G(x)


@given(nonzero_pairs, st.integers(-6, 6))
def test_power_matches_reference(x, n):
    assert parts(G(x) ** n) == ref_pow(x, n)


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        GaussRational(0).inverse()
    with pytest.raises(ZeroDivisionError):
        GaussRational(0) ** -1


@given(pairs, scalars)
def test_mixed_operands_match_reference(x, k):
    r = (Fraction(k), Fraction(0))
    assert parts(G(x) + k) == parts(k + G(x)) == ref_add(x, r)
    assert parts(G(x) - k) == ref_sub(x, r)
    assert parts(k - G(x)) == ref_sub(r, x)
    assert parts(G(x) * k) == parts(k * G(x)) == ref_mul(x, r)


@given(pairs)
def test_negation_conjugate_norm(x):
    z = G(x)
    assert parts(-z) == (-x[0], -x[1])
    assert parts(z.conjugate()) == (x[0], -x[1])
    assert z.norm() == x[0] * x[0] + x[1] * x[1]
    assert isinstance(z.norm(), Fraction)
    assert z.to_complex() == complex(float(x[0]), float(x[1]))


# -- canonical form ---------------------------------------------------------------


@given(pairs)
def test_triple_is_reduced(x):
    a, b, d = G(x).triple
    assert parts(G(x)) == (Fraction(a, d), Fraction(b, d)) == x


@given(pairs, nonzero_pairs)
def test_equal_values_have_equal_hash_and_repr(x, y):
    direct = G(x)
    built = G(x) * G(y) / G(y)
    summed = GaussRational(x[0]) + GaussRational(0, x[1])
    for z in (built, summed):
        assert z == direct
        assert z.triple == direct.triple
        assert hash(z) == hash(direct)
        assert repr(z) == repr(direct)
        assert str(z) == str(direct)


@given(pairs, pairs)
def test_equality_is_equality_of_values(x, y):
    assert (G(x) == G(y)) == (x == y)


# -- agreement with int and Fraction ----------------------------------------------


@given(rationals)
def test_real_values_agree_with_fraction(q):
    z = GaussRational(q)
    assert z == q and q == z
    assert hash(z) == hash(q)
    assert {q: "v"}[z] == "v"
    assert z.is_real()
    assert z != GaussRational(q, 1)


@given(st.integers())
def test_integer_values_agree_with_int(n):
    z = GaussRational(n)
    assert z == n and n == z
    assert hash(z) == hash(n)
    assert {n: "v"}[z] == "v"
    assert z == GaussRational(Fraction(n), Fraction(0))


def test_unsupported_operands():
    z = GaussRational(1, 2)
    assert z != 1.5
    with pytest.raises(TypeError):
        z + 1.5
    with pytest.raises(TypeError):
        GaussRational.coerce("1")


# -- immutability ------------------------------------------------------------------


@given(pairs, pairs)
def test_values_are_immutable(x, y):
    z, w = G(x), G(y)
    before = (z.triple, w.triple)
    for name, value in (("re", 1), ("im", 1), ("triple", (1, 0, 1)), ("other", 0)):
        with pytest.raises(AttributeError):
            setattr(z, name, value)
    for name in ("re", "triple"):
        with pytest.raises(AttributeError):
            delattr(z, name)
    z + w, z - w, z * w, -z, z.conjugate(), z ** 3
    assert (z.triple, w.triple) == before
