"""Affine foliations given by a polynomial one-form a dx + b dy.

The dual vector field is (b, -a): the form vanishes on it, so the
singular points are the common zeros of a and b.  Singular point
enumeration is exact where the coordinates are rational over Q(i) and
falls back to certified numerics elsewhere; a common factor of a and b
means a whole curve of zeros and is rejected up front.
"""

from __future__ import annotations

from .exceptions import DegenerateFoliationError
from .rationals import ZERO, GaussRational
from .polynomials import MultiPoly, check_var, poly_gcd
from .groebner import elimination_generator
from .univariate import durand_kerner, rational_roots
from .multiplicity import local_intersection_multiplicity


class SingularPoint:
    """A common zero of the coefficient pair, exact or numeric."""

    __slots__ = ("coords", "exact")

    def __init__(self, coords, exact: bool):
        self.coords = tuple(coords)
        self.exact = exact

    def to_complex(self) -> tuple[complex, complex]:
        if self.exact:
            return tuple(c.to_complex() for c in self.coords)
        return self.coords

    def __iter__(self):
        return iter(self.coords)

    def __eq__(self, other):
        return (isinstance(other, SingularPoint)
                and self.exact == other.exact and self.coords == other.coords)

    def __hash__(self):
        return hash((self.exact, self.coords))

    def __repr__(self):
        kind = "exact" if self.exact else "approx"
        return f"SingularPoint({self.coords[0]}, {self.coords[1]}, {kind})"


def _eval_scale(p: MultiPoly, vx, vy, x0: complex, y0: complex) -> float:
    mx, my = max(1.0, abs(x0)), max(1.0, abs(y0))
    total = 0.0
    for e, c in p.terms.items():
        mag = abs(c.to_complex())
        for v, k in zip(p.vars, e):
            base = mx if v == vx else my
            mag *= base ** k
        total += mag
    return max(total, 1.0)


def check_factors(factors) -> list[tuple[MultiPoly, GaussRational]]:
    """The factors (g_i, l_i) of a first integral prod g_i^(l_i) as
    polynomials and exponents; ValueError for a constant factor, a zero
    exponent or an empty list."""
    out = []
    for g, ell in factors:
        g = MultiPoly.coerce(g)
        ell = GaussRational.coerce(ell)
        if g.is_constant():
            raise ValueError("constant factor in the product")
        if ell.is_zero():
            raise ValueError("zero exponent in the product")
        out.append((g, ell))
    if not out:
        raise ValueError("empty factor list")
    return out


class Foliation:
    """Polynomial one-form a d(vx) + b d(vy) on an affine chart."""

    __slots__ = ("a", "b", "vx", "vy")

    def __init__(self, a, b, vars=("x", "y")):
        vx, vy = vars
        check_var(vx)
        check_var(vy)
        if vx == vy:
            raise ValueError("chart needs two distinct variables")
        a = MultiPoly.coerce(a)
        b = MultiPoly.coerce(b)
        for p in (a, b):
            stray = [v for v in p.active_vars() if v not in (vx, vy)]
            if stray:
                raise ValueError(f"coefficient uses variables {stray} "
                                 f"outside the chart ({vx}, {vy})")
        if a.is_zero() and b.is_zero():
            raise ValueError("zero one-form")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "vx", vx)
        object.__setattr__(self, "vy", vy)

    def __setattr__(self, name, value):
        raise AttributeError("Foliation is immutable")

    @classmethod
    def from_vector_field(cls, f, g, vars=("x", "y")) -> "Foliation":
        """Foliation whose dual vector field is (f, g)."""
        return cls(-MultiPoly.coerce(g), MultiPoly.coerce(f), vars)

    def dual_vector_field(self) -> tuple[MultiPoly, MultiPoly]:
        return self.b, -self.a

    def degree(self) -> int:
        return max(self.a.degree(), self.b.degree())

    def vars(self) -> tuple[str, str]:
        return self.vx, self.vy

    def __eq__(self, other):
        return (isinstance(other, Foliation) and self.a == other.a
                and self.b == other.b and self.vars() == other.vars())

    def __hash__(self):
        return hash((self.a, self.b, self.vx, self.vy))

    def __repr__(self):
        return (f"Foliation(({self.a}) d{self.vx} + ({self.b}) d{self.vy})")

    def rename(self, vars) -> "Foliation":
        """Same form written in new chart variable names."""
        nx, ny = vars
        if (nx, ny) == (self.vx, self.vy):
            return self
        sub = {self.vx: MultiPoly.var(nx), self.vy: MultiPoly.var(ny)}
        return Foliation(self.a.substitute_poly(sub),
                         self.b.substitute_poly(sub), (nx, ny))

    def translate(self, point) -> "Foliation":
        """Move the given point to the origin of the chart."""
        px, py = point
        shift = {self.vx: GaussRational.coerce(px),
                 self.vy: GaussRational.coerce(py)}
        return Foliation(self.a.shift(shift), self.b.shift(shift),
                         (self.vx, self.vy))

    def is_singular_at(self, point) -> bool:
        px, py = point
        at = {self.vx: GaussRational.coerce(px), self.vy: GaussRational.coerce(py)}
        return self.a.eval_exact(at).is_zero() and self.b.eval_exact(at).is_zero()

    def order_at(self, point=None) -> int:
        """Vanishing order of the form at the point (default origin)."""
        fol = self.translate(point) if point else self
        return int(min(fol.a.order_at_zero(), fol.b.order_at_zero()))

    def jacobian_at(self, point=None):
        """Jacobian matrix of the dual vector field at the point."""
        f, g = self.dual_vector_field()
        px, py = point if point else (ZERO, ZERO)
        at = {self.vx: GaussRational.coerce(px), self.vy: GaussRational.coerce(py)}
        return [
            [f.diff(self.vx).eval_exact(at), f.diff(self.vy).eval_exact(at)],
            [g.diff(self.vx).eval_exact(at), g.diff(self.vy).eval_exact(at)],
        ]

    def milnor_number(self, point=None) -> int:
        """Local intersection multiplicity of the coefficient pair."""
        shift = None
        if point:
            px, py = point
            shift = {self.vx: GaussRational.coerce(px),
                     self.vy: GaussRational.coerce(py)}
        return local_intersection_multiplicity(self.a, self.b, shift)

    def check_isolated_singularities(self) -> None:
        common = poly_gcd(self.a, self.b)
        if not common.is_constant():
            raise DegenerateFoliationError(
                "coefficients share the factor " + str(common))

    def singular_points(self, tol: float = 1e-8) -> list[SingularPoint]:
        """All common zeros of the coefficients in this chart.

        Points with coordinates in Q(i) come back exact; the rest are
        numeric with residuals certified against tol."""
        self.check_isolated_singularities()
        a, b, vx, vy = self.a, self.b, self.vx, self.vy
        if a.is_constant() or b.is_constant():
            nz = a if a.is_constant() and not a.is_zero() else None
            nz = nz or (b if b.is_constant() and not b.is_zero() else None)
            if nz is not None:
                return []
        rx, _ = elimination_generator([a, b], vx)
        if rx.is_constant():
            return []
        exact_x, rem_x = rational_roots(rx, vx)
        exact_pts: list[SingularPoint] = []
        numeric_pts: list[tuple[complex, complex]] = []
        for x0, _ in exact_x:
            ay = a.substitute_poly({vx: MultiPoly.const(x0)}).trim()
            by = b.substitute_poly({vx: MultiPoly.const(x0)}).trim()
            gy = poly_gcd(ay, by)
            if gy.is_constant():
                continue
            ys, rem_y = rational_roots(gy, vy)
            for y0, _ in ys:
                exact_pts.append(SingularPoint((x0, y0), True))
            if rem_y.degree() > 0:
                for y0 in durand_kerner(rem_y, vy):
                    numeric_pts.append((x0.to_complex(), y0))
        if rem_x.degree() > 0:
            ry, _ = elimination_generator([a, b], vy)
            ys_exact, ys_rem = rational_roots(ry, vy)
            y_candidates = [y0.to_complex() for y0, _ in ys_exact]
            if ys_rem.degree() > 0:
                y_candidates.extend(durand_kerner(ys_rem, vy))
            for x0 in durand_kerner(rem_x, vx):
                for y0 in y_candidates:
                    ra = abs(complex(a.eval_complex({vx: x0, vy: y0})))
                    rb = abs(complex(b.eval_complex({vx: x0, vy: y0})))
                    if (ra <= tol * _eval_scale(a, vx, vy, x0, y0)
                            and rb <= tol * _eval_scale(b, vx, vy, x0, y0)):
                        numeric_pts.append((x0, y0))
        return _merge_points(exact_pts, numeric_pts, tol)


def _merge_points(exact_pts, numeric_pts, tol) -> list[SingularPoint]:
    cluster = max(tol, 1e-8)
    kept: list[SingularPoint] = list(exact_pts)
    anchors = [p.to_complex() for p in exact_pts]
    for x0, y0 in sorted(numeric_pts,
                         key=lambda p: (p[0].real, p[0].imag, p[1].real, p[1].imag)):
        close = False
        for ax, ay in anchors:
            if abs(x0 - ax) < cluster and abs(y0 - ay) < cluster:
                close = True
                break
        if not close:
            kept.append(SingularPoint((x0, y0), False))
            anchors.append((x0, y0))

    def sort_key(p: SingularPoint):
        cx, cy = p.to_complex()
        return (not p.exact, round(cx.real, 9), round(cx.imag, 9),
                round(cy.real, 9), round(cy.imag, 9))

    return sorted(kept, key=sort_key)
