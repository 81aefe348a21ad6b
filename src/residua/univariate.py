"""Univariate helpers: exact gcd and roots over Q(i), numeric roots.

Rational root extraction is exact and conservative.  Linear and quadratic
polynomials are solved in closed form (square roots inside Q(i) are
decidable), higher degrees go through a Gaussian-integer divisor sieve on
the cleared-denominator coefficients; every candidate is verified by
exact evaluation before it is accepted, so the sieve can miss roots with
huge coefficient norms but never reports a false one.  Whatever remains
unfactored is handed to the Durand-Kerner iteration.
"""

from __future__ import annotations

from math import lcm

from .exceptions import RootFindingError
from .rationals import ZERO, ONE, GaussRational, gauss_int_divisors, gauss_sqrt
from .polynomials import MultiPoly


def coeff_list(p: MultiPoly, var: str) -> list[GaussRational]:
    """Ascending coefficients of a polynomial that must be univariate."""
    p = p.trim()
    if p.is_zero():
        return []
    active = p.active_vars()
    if active not in ((), (var,)):
        raise ValueError(f"{p} is not univariate in {var}")
    p = p.align_to((var,))
    out = [ZERO] * (p.degree_in(var) + 1)
    for (k,), c in p.terms.items():
        out[k] = c
    return out


def from_coeffs(coeffs, var: str) -> MultiPoly:
    return MultiPoly((var,), {(k,): c for k, c in enumerate(coeffs)})


def univar_divmod(f, g):
    """Quotient and remainder on ascending coefficient lists."""
    f = list(f)
    if not g:
        raise ZeroDivisionError("univariate division by zero")
    q = [ZERO] * max(0, len(f) - len(g) + 1)
    glead = g[-1]
    while len(f) >= len(g):
        k = len(f) - len(g)
        c = f[-1] / glead
        q[k] = c
        for i, gc in enumerate(g):
            f[k + i] = f[k + i] - c * gc
        while f and f[-1].is_zero():
            f.pop()
        if not f:
            break
    while f and f[-1].is_zero():
        f.pop()
    return q, f


def univar_gcd(f, g):
    """Monic gcd of two ascending coefficient lists."""
    f = [c for c in f]
    g = [c for c in g]
    while f and f[-1].is_zero():
        f.pop()
    while g and g[-1].is_zero():
        g.pop()
    while g:
        _, r = univar_divmod(f, g)
        f, g = g, r
    if f:
        inv = f[-1].inverse()
        f = [c * inv for c in f]
    return f


def derivative(f):
    return [c * k for k, c in enumerate(f)][1:]


def squarefree_part(f):
    """f / gcd(f, f'), monic."""
    g = univar_gcd(f, derivative(f))
    q, r = univar_divmod(f, g)
    assert not r
    if q:
        inv = q[-1].inverse()
        q = [c * inv for c in q]
    return q


def eval_at(f, z: GaussRational) -> GaussRational:
    acc = ZERO
    for c in reversed(f):
        acc = acc * z + c
    return acc


def eval_complex(f, z: complex) -> complex:
    acc = 0j
    for c in reversed(f):
        acc = acc * z + c.to_complex()
    return acc


def order_at_zero(f) -> int:
    for k, c in enumerate(f):
        if c:
            return k
    raise ValueError("zero polynomial")


def series_inverse(unit, order: int):
    """Power-series inverse of a unit (unit[0] != 0) up to degree order."""
    u0 = unit[0]
    if u0.is_zero():
        raise ValueError("not a unit: constant term vanishes")
    inv0 = u0.inverse()
    out = [inv0]
    for k in range(1, order + 1):
        acc = ZERO
        for j in range(1, min(k, len(unit) - 1) + 1):
            acc = acc + unit[j] * out[k - j]
        out.append(-acc * inv0)
    return out


# -- exact roots --------------------------------------------------------


def _linear_roots(f):
    # f = a0 + a1*v
    return [(-f[0] / f[1], 1)]


def _quadratic_roots(f):
    a0, a1, a2 = f[0], f[1], f[2]
    disc = a1 * a1 - 4 * a2 * a0
    s = gauss_sqrt(disc)
    if s is None:
        return []
    inv = (a2 * 2).inverse()
    if s.is_zero():
        return [((-a1) * inv, 2)]
    return [((-a1 + s) * inv, 1), ((-a1 - s) * inv, 1)]


def _sieve_one_root(f):
    """One Q(i) root of f found by the divisor sieve, or None."""
    den = lcm(*(c.triple[2] for c in f))
    lead_t, const_t = ((a * (den // d), b * (den // d))
                       for a, b, d in (f[-1].triple, f[0].triple))
    units = [GaussRational(1), GaussRational(-1), GaussRational(0, 1), GaussRational(0, -1)]
    for b in gauss_int_divisors(lead_t):
        bq = GaussRational(b[0], b[1])
        for a in gauss_int_divisors(const_t):
            aq = GaussRational(a[0], a[1])
            base = aq / bq
            for unit in units:
                cand = base * unit
                if eval_at(f, cand).is_zero():
                    return cand
    return None


def rational_roots(p: MultiPoly, var: str):
    """Exact Q(i) roots with multiplicities, plus the unfactored remainder.

    Returns (roots, remainder) where roots is a list of
    (GaussRational, multiplicity) and remainder is a MultiPoly carrying
    the factors with no rational root found (constant when complete).
    """
    f = coeff_list(p, var)
    if not f:
        raise ValueError("zero polynomial has every point as a root")
    roots = []
    k = order_at_zero(f)
    if k:
        roots.append((ZERO, k))
        f = f[k:]
    while len(f) > 1:
        if len(f) == 2:
            root, _ = _linear_roots(f)[0]
        elif len(f) == 3:
            qr = _quadratic_roots(f)
            if not qr:
                break
            root = qr[0][0]
        else:
            root = _sieve_one_root(f)
            if root is None:
                break
        mult = 0
        while True:
            q, r = univar_divmod(f, [-root, ONE])
            if r:
                break
            f = q
            mult += 1
        roots.append((root, mult))
    return roots, from_coeffs(f, var)


# -- numeric roots ------------------------------------------------------


def durand_kerner(p: MultiPoly, var: str, residual_tol: float = 1e-10,
                  cluster_tol: float = 1e-8, max_iter: int = 1000):
    """All complex roots of the squarefree part, simultaneous iteration.

    Initial guesses are powers of 0.4+0.9i scaled by a coefficient bound,
    so runs are deterministic.  Raises RootFindingError, carrying the
    degree, max|z|, the worst residual and the bound, when a residual
    fails the bound residual_tol * max|coeff|.
    """
    f = squarefree_part(coeff_list(p, var))
    n = len(f) - 1
    if n <= 0:
        return []
    cf = [c.to_complex() for c in f]
    lead = cf[-1]
    scale = max(abs(c) for c in cf)
    radius = 1.0 + max(abs(c / lead) for c in cf[:-1])
    seed = 0.4 + 0.9j
    zs = [radius * seed ** k for k in range(1, n + 1)]
    for _ in range(max_iter):
        moved = 0.0
        for i in range(n):
            num = eval_complex(f, zs[i])
            den = lead
            for j in range(n):
                if j != i:
                    den *= zs[i] - zs[j]
            if den == 0:
                den = 1e-300
            delta = num / den
            zs[i] -= delta
            moved = max(moved, abs(delta))
        if moved < 1e-14 * (1.0 + max(abs(z) for z in zs)):
            break
    bound = residual_tol * scale
    failed = [r for r in (abs(eval_complex(f, z)) for z in zs) if r > bound]
    if failed:
        raise RootFindingError(n, max(abs(z) for z in zs), max(failed), bound)
    merged: list[complex] = []
    for z in sorted(zs, key=lambda v: (round(v.real, 12), round(v.imag, 12))):
        if merged and abs(z - merged[-1]) < cluster_tol:
            continue
        merged.append(z)
    return merged
