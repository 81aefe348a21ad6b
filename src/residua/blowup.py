"""Blowing up singular points and deciding dicriticalness.

One blow-up replaces the origin by a line E of directions.  In the
chart y = t x the pulled back form is
    (A(x,tx) + t B(x,tx)) dx + x B(x,tx) dt
and in the chart x = s y it is
    y A(sy,y) ds + (s A(sy,y) + B(sy,y)) dy,
each divided by the largest power of the exceptional coordinate that
divides both coefficients.  The blow-up is dicritical when that extra
division removes E from the zero set, which happens exactly when the
lowest homogeneous parts satisfy x A_v + y B_v = 0; then generic leaves
cross E instead of containing it.

is_dicritical runs the resolution recursively: at each singular point
on E it either terminates (a nondegenerate linear part whose
trace^2/det is not a positive-resonance value stays simple under
further blow-ups), recurses, or gives up honestly at the depth limit
or at singular directions with non-rational coordinates.
"""

from __future__ import annotations

from .rationals import ZERO, GaussRational, fraction_sqrt
from .polynomials import MultiPoly, exact_divide
from .foliation import Foliation
from .univariate import rational_roots


class DicriticalResult:
    """Outcome of the dicritical test."""

    __slots__ = ("verdict", "depth", "reason")

    def __init__(self, verdict: str, depth: int, reason: str = ""):
        self.verdict = verdict
        self.depth = depth
        self.reason = reason

    def __eq__(self, other):
        return (isinstance(other, DicriticalResult)
                and (self.verdict, self.depth) == (other.verdict, other.depth))

    def __repr__(self):
        extra = f", {self.reason!r}" if self.reason else ""
        return f"DicriticalResult({self.verdict!r}, depth={self.depth}{extra})"

    def is_dicritical(self):
        return self.verdict == "dicritical"


def _var_order(p: MultiPoly, var: str) -> int:
    if p.is_zero():
        raise ValueError("zero polynomial")
    if var not in p.vars:
        return 0
    i = p.vars.index(var)
    return min(e[i] for e in p.terms)


def vanishing_order(fol: Foliation) -> int:
    """Order of the form at the origin of its chart."""
    return fol.order_at()


def first_blowup_dicritical(fol: Foliation) -> bool:
    """True when one blow-up of the origin makes the exceptional line
    non-invariant: x A_v + y B_v = 0 for the lowest parts of order v."""
    v = fol.order_at()
    av = fol.a.homogeneous_part(v)
    bv = fol.b.homogeneous_part(v)
    cone = MultiPoly.var(fol.vx) * av + MultiPoly.var(fol.vy) * bv
    return cone.is_zero()


def blow_up(fol: Foliation, chart: str) -> Foliation:
    """Pull back through one blow-up of the origin.

    chart "x" substitutes y = t x and returns a form in (x, t) with
    E = {x = 0}; chart "y" substitutes x = s y and returns a form in
    (s, y) with E = {y = 0}.  Chart variable names are fixed as t and s
    regardless of the input chart names."""
    fol = fol.rename(("x", "y"))
    a, b = fol.a, fol.b
    if chart == "x":
        tvar = MultiPoly.var("t")
        xvar = MultiPoly.var("x")
        sub = {"y": tvar * xvar}
        at = a.substitute_poly(sub)
        bt = b.substitute_poly(sub)
        new_a = at + tvar * bt
        new_b = xvar * bt
        exc = "x"
        vars = ("x", "t")
    elif chart == "y":
        svar = MultiPoly.var("s")
        yvar = MultiPoly.var("y")
        sub = {"x": svar * yvar}
        at = a.substitute_poly(sub)
        bt = b.substitute_poly(sub)
        new_a = yvar * at
        new_b = svar * at + bt
        exc = "y"
        vars = ("s", "y")
    else:
        raise ValueError(f"chart must be 'x' or 'y', not {chart}")
    orders = [_var_order(p, exc) for p in (new_a, new_b) if not p.is_zero()]
    k = min(orders) if orders else 0
    if k:
        power = MultiPoly.var(exc) ** k
        new_a = exact_divide(new_a, power)
        new_b = exact_divide(new_b, power)
    return Foliation(new_a, new_b, vars)


def exceptional_line_invariant(fol: Foliation, chart: str) -> bool:
    """Whether E stays invariant in the given blow-up chart."""
    blown = blow_up(fol, chart)
    if chart == "x":
        # E = {x = 0}: the dt coefficient must vanish on it
        return exact_divide(blown.b, MultiPoly.var("x")) is not None
    return exact_divide(blown.a, MultiPoly.var("y")) is not None


def is_positive_resonance(r: GaussRational) -> bool:
    """Whether r = (p+q)^2/(p q) for some positive integers p, q, the
    trace^2/det of a node with eigenvalue ratio p:q.  As r = t + 1/t + 2
    with t = p/q, that holds exactly when r is rational and
    t^2 - (r-2) t + 1 has a positive rational root.  The roots are t and
    1/t, with sum s = r - 2; they are rational when s^2 - 4 is a rational
    square, and positive when s > 0."""
    if not r.is_real():
        return False
    s = r.re - 2
    return s > 0 and fraction_sqrt(s * s - 4) is not None


def _linear_part_rules_out_dicritical(fol: Foliation) -> bool:
    j = fol.jacobian_at()
    det = j[0][0] * j[1][1] - j[0][1] * j[1][0]
    if det.is_zero():
        return False
    tr = j[0][0] + j[1][1]
    return not is_positive_resonance(tr * tr / det)


def linear_part_rules_out_dicritical(jac, tol: float = 1e-9) -> bool:
    """Numeric variant for points with approximate coordinates: a
    nondegenerate linear part whose trace^2/det is no positive-resonance
    value cannot become dicritical.  Those values t + 1/t + 2 (t > 0
    rational) are dense in [4, oo), so numerically only a ratio off that
    half-line, by more than tol, rules dicriticalness out."""
    (fx, fy), (gx, gy) = jac
    det = fx * gy - fy * gx
    if abs(det) <= tol:
        return False
    ratio = (fx + gy) ** 2 / det
    return abs(ratio.imag) > tol or ratio.real < 4 - tol


def is_dicritical(fol: Foliation, point=None, depth_limit: int = 12) -> DicriticalResult:
    """Decide whether infinitely many leaves pass through the point.

    A node with eigenvalue ratio 1:k needs k blow-ups before the
    exceptional line turns non-invariant, so for k > depth_limit (12 by
    default) the verdict is undecided, not dicritical."""
    fol = fol.rename(("x", "y"))
    if point:
        fol = fol.translate(point)
    if not fol.is_singular_at((ZERO, ZERO)):
        return DicriticalResult("non_dicritical", 0, "regular point")
    return _dicritical_rec(fol, 1, depth_limit)


def _dicritical_rec(fol: Foliation, depth: int, limit: int) -> DicriticalResult:
    if depth > limit:
        return DicriticalResult("undecided", depth - 1,
                                f"no resolution within {limit} blow-ups")
    if first_blowup_dicritical(fol):
        return DicriticalResult("dicritical", depth)
    if _linear_part_rules_out_dicritical(fol):
        return DicriticalResult("non_dicritical", depth)
    branches: list[DicriticalResult] = []
    c1 = blow_up(fol, "x")
    on_e = c1.a.substitute_poly({"x": MultiPoly.const(0)}).trim()
    undecided_reason = None
    if not on_e.is_constant():
        roots, rem = rational_roots(on_e, "t")
        if rem.degree() > 0:
            undecided_reason = ("singular direction with non-rational "
                                "coordinates")
        for t0, _ in roots:
            shifted = c1.translate((ZERO, t0)).rename(("x", "y"))
            branches.append(_dicritical_rec(shifted, depth + 1, limit))
    c2 = blow_up(fol, "y")
    if c2.is_singular_at((ZERO, ZERO)):
        branches.append(_dicritical_rec(c2.rename(("x", "y")), depth + 1, limit))
    for r in branches:
        if r.verdict == "dicritical":
            return r
    for r in branches:
        if r.verdict == "undecided":
            return r
    if undecided_reason:
        return DicriticalResult("undecided", depth, undecided_reason)
    if branches:
        return DicriticalResult("non_dicritical",
                                max(r.depth for r in branches))
    return DicriticalResult("non_dicritical", depth)


def is_simple_dicritical(fol: Foliation, point=None) -> bool:
    """One blow-up makes E non-invariant and the foliation meets E with
    a single simple tangency."""
    fol = fol.rename(("x", "y"))
    if point:
        fol = fol.translate(point)
    if not fol.is_singular_at((ZERO, ZERO)):
        return False
    if not first_blowup_dicritical(fol):
        return False
    if fol.order_at() != 1:
        return False
    c1 = blow_up(fol, "x")
    tangency = c1.a.substitute_poly({"x": MultiPoly.const(0)}).trim()
    if tangency.is_zero():
        return False
    if tangency.degree_in("t") == 1:
        return True
    if not tangency.is_constant():
        return False
    # tangency could sit at the missing direction t = infinity
    c2 = blow_up(fol, "y")
    mirror = c2.b.substitute_poly({"y": MultiPoly.const(0)}).trim()
    if mirror.is_zero():
        return False
    return _var_order(mirror, "s") == 1
