"""Foliations of the projective plane in homogeneous coordinates.

A foliation is a triple (l, m, n) of homogeneous polynomials of one
degree in Z1, Z2, Z3 with Z1 l + Z2 m + Z3 n = 0 and no common factor.
Affine charts set one coordinate to 1: chart Z3 uses (x, y), chart Z2
uses (u, w) = (Z1/Z2, Z3/Z2), chart Z1 uses (s, t) = (Z2/Z1, Z3/Z1).
The foliation degree is one less than the coefficient degree, and the
singular points, counted with multiplicity, number d^2 + d + 1.
"""

from __future__ import annotations

from .exceptions import DegenerateFoliationError, UnsupportedInputError
from .rationals import ZERO, ONE, GaussRational
from .polynomials import MultiPoly, exact_divide, gaussian_content, poly_gcd
from .foliation import Foliation, SingularPoint
from .univariate import durand_kerner, rational_roots

CHART_VARS = {"Z3": ("x", "y"), "Z2": ("u", "w"), "Z1": ("s", "t")}


def _at_z3_zero(p: MultiPoly) -> MultiPoly:
    return p.substitute_poly({"Z3": MultiPoly.const(0)})


class ProjectivePoint:
    """A singular point with the chart where it is best inspected."""

    __slots__ = ("coords", "exact", "chart", "chart_coords")

    def __init__(self, coords, exact, chart, chart_coords):
        self.coords = tuple(coords)
        self.exact = exact
        self.chart = chart
        self.chart_coords = tuple(chart_coords)

    @classmethod
    def affine(cls, pt: SingularPoint) -> "ProjectivePoint":
        x, y = pt.coords
        one = ONE if pt.exact else 1.0
        return cls((x, y, one), pt.exact, "Z3", (x, y))

    @classmethod
    def at_infinity(cls, u, exact: bool) -> "ProjectivePoint":
        one = ONE if exact else 1.0
        zero = ZERO if exact else 0.0
        return cls((u, one, zero), exact, "Z2", (u, zero))

    @classmethod
    def first_axis(cls) -> "ProjectivePoint":
        return cls((ONE, ZERO, ZERO), True, "Z1", (ZERO, ZERO))

    def is_infinite(self) -> bool:
        z3 = self.coords[2]
        if self.exact:
            return z3.is_zero()
        return z3 == 0

    def to_complex(self) -> tuple[complex, complex, complex]:
        if self.exact:
            return tuple(c.to_complex() for c in self.coords)
        return tuple(complex(c) for c in self.coords)

    def __eq__(self, other):
        return (isinstance(other, ProjectivePoint)
                and self.exact == other.exact and self.coords == other.coords)

    def __hash__(self):
        return hash((self.exact, self.coords))

    def __repr__(self):
        kind = "exact" if self.exact else "approx"
        body = " : ".join(str(c) for c in self.coords)
        return f"ProjectivePoint([{body}], {kind})"


class ProjectiveFoliation:
    """Homogeneous one-form l dZ1 + m dZ2 + n dZ3 on the plane."""

    __slots__ = ("l", "m", "n")

    def __init__(self, l, m, n):
        l = MultiPoly.coerce(l)
        m = MultiPoly.coerce(m)
        n = MultiPoly.coerce(n)
        triple = [l, m, n]
        for p in triple:
            stray = [v for v in p.active_vars() if v not in ("Z1", "Z2", "Z3")]
            if stray:
                raise ValueError(f"homogeneous side uses chart variables {stray}")
            if not p.is_homogeneous():
                raise ValueError(f"{p} is not homogeneous")
        degs = {p.degree() for p in triple if not p.is_zero()}
        if not degs:
            raise ValueError("zero one-form")
        if len(degs) != 1:
            raise ValueError(f"mixed coefficient degrees {sorted(degs)}")
        if next(iter(degs)) < 1:
            raise ValueError("coefficient degree must be at least 1")
        euler = (MultiPoly.var("Z1") * l + MultiPoly.var("Z2") * m
                 + MultiPoly.var("Z3") * n)
        if not euler.is_zero():
            raise ValueError("coordinates do not contract to zero "
                             "(Euler identity fails)")
        # by the Euler identity a factor of all three other than Z3 is a
        # factor of l and m in the chart Z3 = 1, and the converse holds
        common = poly_gcd(l.dehomogenize("Z3"), m.dehomogenize("Z3"))
        if not common.is_constant():
            raise ValueError("coefficients share the factor "
                             + str(common.homogenize("Z3", common.degree())))
        if all(_at_z3_zero(p).is_zero() for p in triple):
            raise ValueError("coefficients share the factor Z3")
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError("ProjectiveFoliation is immutable")

    def __eq__(self, other):
        return (isinstance(other, ProjectiveFoliation) and self.l == other.l
                and self.m == other.m and self.n == other.n)

    def __hash__(self):
        return hash((self.l, self.m, self.n))

    def __repr__(self):
        return f"ProjectiveFoliation({self.l}, {self.m}, {self.n})"

    def degree(self) -> int:
        for p in (self.l, self.m, self.n):
            if not p.is_zero():
                return p.degree() - 1
        raise ValueError("zero one-form")

    def bezout_count(self) -> int:
        d = self.degree()
        return d * d + d + 1

    @classmethod
    def from_affine(cls, fol: Foliation) -> "ProjectiveFoliation":
        fol = fol.rename(("x", "y"))
        a, b = fol.a, fol.b
        common = poly_gcd(a, b)
        if not common.is_constant():
            a = exact_divide(a, common)
            b = exact_divide(b, common)
        deg = max(a.degree(), b.degree())
        sub = {"x": MultiPoly.var("Z1"), "y": MultiPoly.var("Z2")}
        ah = a.substitute_poly(sub).homogenize("Z3", deg)
        bh = b.substitute_poly(sub).homogenize("Z3", deg)
        z1, z2, z3 = (MultiPoly.var(v) for v in ("Z1", "Z2", "Z3"))
        l = z3 * ah
        m = z3 * bh
        n = -(z1 * ah + z2 * bh)
        # a and b are coprime and Z3 divides at most one of ah, bh, so
        # the three can share only Z3, and only once
        if _at_z3_zero(n).is_zero():
            l, m, n = ah, bh, exact_divide(n, z3)
        unit = gaussian_content([l, m, n]).inverse()
        return cls(l * unit, m * unit, n * unit)

    def chart(self, name: str) -> Foliation:
        """Affine form in the chart where the named coordinate is 1."""
        if name not in CHART_VARS:
            raise ValueError(f"unknown chart {name}")
        vx, vy = CHART_VARS[name]
        if name == "Z3":
            sub = {"Z1": MultiPoly.var("x"), "Z2": MultiPoly.var("y"),
                   "Z3": MultiPoly.const(1)}
            return Foliation(self.l.substitute_poly(sub).trim(),
                             self.m.substitute_poly(sub).trim(), (vx, vy))
        if name == "Z2":
            sub = {"Z1": MultiPoly.var("u"), "Z2": MultiPoly.const(1),
                   "Z3": MultiPoly.var("w")}
            return Foliation(self.l.substitute_poly(sub).trim(),
                             self.n.substitute_poly(sub).trim(), (vx, vy))
        sub = {"Z1": MultiPoly.const(1), "Z2": MultiPoly.var("s"),
               "Z3": MultiPoly.var("t")}
        return Foliation(self.m.substitute_poly(sub).trim(),
                         self.n.substitute_poly(sub).trim(), (vx, vy))

    def singular_points(self, tol: float = 1e-8) -> list[ProjectivePoint]:
        """All singular points, affine chart first, then the line at
        infinity."""
        out = [ProjectivePoint.affine(p)
               for p in self.chart("Z3").singular_points(tol)]
        inf_chart = self.chart("Z2")
        a0 = inf_chart.a.substitute_poly({"w": MultiPoly.const(0)}).trim()
        b0 = inf_chart.b.substitute_poly({"w": MultiPoly.const(0)}).trim()
        if a0.is_zero() and b0.is_zero():
            raise DegenerateFoliationError(
                "the line at infinity consists of singular points")
        g = poly_gcd(a0, b0)
        if not g.is_constant():
            roots, rem = rational_roots(g, "u")
            for u0, _ in roots:
                out.append(ProjectivePoint.at_infinity(u0, True))
            if rem.degree() > 0:
                for u0 in durand_kerner(rem, "u"):
                    out.append(ProjectivePoint.at_infinity(u0, False))
        far = self.chart("Z1")
        if far.is_singular_at((ZERO, ZERO)):
            out.append(ProjectivePoint.first_axis())
        return out

    def milnor_number(self, point: ProjectivePoint) -> int:
        if not point.exact:
            raise UnsupportedInputError(
                "exact multiplicity needs exact coordinates")
        return self.chart(point.chart).milnor_number(point.chart_coords)

    def total_multiplicity(self, tol: float = 1e-8) -> int:
        """Sum of multiplicities over all singular points.  Numeric
        points must be certifiably simple (nonvanishing Jacobian)."""
        total = 0
        for p in self.singular_points(tol):
            if p.exact:
                total += self.milnor_number(p)
                continue
            fol = self.chart(p.chart)
            f, g = fol.dual_vector_field()
            cx, cy = (complex(c) for c in p.chart_coords)
            at = {fol.vx: cx, fol.vy: cy}
            det = (f.diff(fol.vx).eval_complex(at) * g.diff(fol.vy).eval_complex(at)
                   - f.diff(fol.vy).eval_complex(at) * g.diff(fol.vx).eval_complex(at))
            if abs(det) <= tol:
                raise UnsupportedInputError(
                    "cannot certify a numeric singular point as simple")
            total += 1
        return total

    def check_bezout(self, tol: float = 1e-8) -> int:
        total = self.total_multiplicity(tol)
        expected = self.bezout_count()
        if total != expected:
            raise DegenerateFoliationError(
                f"singular points count {total} with multiplicity, "
                f"degree {self.degree()} demands {expected}")
        return total
