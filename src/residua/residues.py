"""Point residues of meromorphic data, computed exactly.

series_residue reads off the residue of num/den at the origin of a one
variable line.  grothendieck_residue computes the local residue of
h dx dy / (F G) at the origin.  At a simple zero, where the linear parts
of F and G are independent, it is h(0) / det J(0) with J the Jacobian
matrix of (F, G); no elimination is run.  Elsewhere the denominator
pair is rewritten into separated univariate polynomials: the Sylvester
resultants in each variable, r = u F + v G, with cofactors read off the
Sylvester matrix.  By the transformation law the determinant of the
cofactor matrix carries the residue across; the law holds for any such
pair, not only for minimal eliminants.  The separated case is
coefficient extraction against the truncated inverse of the unit parts.
"""

from __future__ import annotations

from .exceptions import InfiniteMultiplicityError, UnsupportedInputError
from .rationals import ZERO, GaussRational
from .polynomials import (
    MultiPoly,
    exact_divide,
    jacobian_det_at_origin,
    poly_gcd,
    sort_vars,
)
from .groebner import elimination_generator
from .univariate import coeff_list, from_coeffs, order_at_zero, series_inverse


def series_residue(num: MultiPoly, den: MultiPoly, var: str | None = None) -> GaussRational:
    """Residue at 0 of num/den along one line, both polynomials in one
    variable.  den = v^k * unit; the residue is the coefficient of
    v^(k-1) in num / unit."""
    num = MultiPoly.coerce(num)
    den = MultiPoly.coerce(den)
    if den.is_zero():
        raise ZeroDivisionError("residue of division by zero")
    if var is None:
        active = set(num.active_vars()) | set(den.active_vars())
        if len(active) > 1:
            raise ValueError(f"more than one variable in {sorted(active)}")
        var = next(iter(active)) if active else "x"
    dc = coeff_list(den, var)
    k = order_at_zero(dc)
    if k == 0:
        return ZERO
    unit = dc[k:]
    nc = coeff_list(num, var)
    inv = series_inverse(unit, k - 1)
    acc = ZERO
    for j in range(k):
        if j < len(nc) and k - 1 - j < len(inv):
            acc = acc + nc[j] * inv[k - 1 - j]
    return acc


def _separated_residue(phi: MultiPoly, rx: MultiPoly, ry: MultiPoly,
                       vx: str, vy: str) -> GaussRational:
    """Residue of phi / (rx(vx) * ry(vy)) at the origin."""
    cx = coeff_list(rx, vx)
    cy = coeff_list(ry, vy)
    a = order_at_zero(cx)
    b = order_at_zero(cy)
    if a == 0 or b == 0:
        return ZERO
    invx = series_inverse(cx[a:], a - 1)
    invy = series_inverse(cy[b:], b - 1)
    phi = phi.truncate({vx: a - 1, vy: b - 1})
    px = from_coeffs(invx, vx)
    py = from_coeffs(invy, vy)
    prod = phi * px * py
    return prod.coeff_of({vx: a - 1, vy: b - 1})


def grothendieck_residue(h: MultiPoly, f: MultiPoly, g: MultiPoly,
                         vars=None) -> GaussRational:
    """Local residue of h / (f, g) at the origin.

    f and g must both vanish at the origin and have no common component
    through it.  When their linear parts are independent the residue is
    h(0) / det J(0), J the Jacobian matrix of (f, g) in the ordered pair.
    The value is alternating in the coordinate pair, so callers whose
    charts are not in default variable order must pass the ordered pair
    explicitly."""
    h = MultiPoly.coerce(h)
    f = MultiPoly.coerce(f)
    g = MultiPoly.coerce(g)
    active = set(f.active_vars()) | set(g.active_vars())
    origin = {v: ZERO for v in active}
    if not f.eval_exact(origin).is_zero() or not g.eval_exact(origin).is_zero():
        raise ValueError("denominator pair must vanish at the origin")
    # a pair the resultant path would turn down goes there for its error
    pair = sort_vars(active) if vars is None else tuple(vars)
    if (len(pair) == 2 and pair[0] != pair[1] and active <= set(pair)
            and set(h.active_vars()) <= set(pair)):
        det = jacobian_det_at_origin(f, g, *pair)
        if not det.is_zero():
            return h.coeff_of({}) / det
    return _resultant_residue(h, f, g, vars)


def _resultant_residue(h: MultiPoly, f: MultiPoly, g: MultiPoly,
                       vars=None) -> GaussRational:
    """grothendieck_residue through the Sylvester resultants, for a pair
    vanishing at the origin.

    A common factor c not through the origin is moved across by the
    pair (f / c, c g), whose transformation matrix diag(1/c, c) has
    determinant 1, until f and g are coprime; each round lowers the
    degree of f."""
    origin = {v: ZERO
              for v in set(f.active_vars()) | set(g.active_vars())}
    common = poly_gcd(f, g)
    while not common.is_constant():
        if common.eval_exact(origin).is_zero():
            raise InfiniteMultiplicityError(
                "denominators share the component " + str(common))
        f = exact_divide(f, common)
        g = g * common
        common = poly_gcd(f, g)
    active = sort_vars(set(f.active_vars()) | set(g.active_vars()))
    if vars is None:
        pair = active
        if len(pair) != 2:
            raise UnsupportedInputError(
                f"residue needs a two variable denominator pair, got {pair}")
    else:
        pair = tuple(vars)
        if len(pair) != 2 or pair[0] == pair[1]:
            raise ValueError("vars must be an ordered pair of distinct names")
        extra = [v for v in active if v not in pair]
        if extra:
            raise ValueError(
                f"denominators use variables {extra} outside the pair")
    stray = [v for v in h.active_vars() if v not in pair]
    if stray:
        raise ValueError(f"numerator uses variables {stray} outside the pair")
    vx, vy = pair
    rx, (px, qx) = elimination_generator([f, g], vx)
    ry, (py, qy) = elimination_generator([f, g], vy)
    det = px * qy - qx * py
    return _separated_residue(h * det, rx, ry, vx, vy)
