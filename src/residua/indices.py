"""Singularity indices: Baum-Bott residues and Camacho-Sad indices.

bb_residue works at any isolated singular point through the Grothendieck
residue of (div V)^2 against the dual vector field V; at a nondegenerate
point grothendieck_residue takes its closed form, which is
trace^2/determinant of the linear part of V.  cs_smooth_branch measures
the index of an invariant coordinate axis as a one variable residue.
The *_from_factored forms evaluate the same indices for a foliation cut
out by a product of curves with exponents, using only intersection
multiplicities of the factors.
"""

from __future__ import annotations

from .exceptions import UnsupportedInputError
from .rationals import ZERO, GaussRational
from .polynomials import MultiPoly, exact_divide
from .foliation import Foliation, check_factors
from .residues import grothendieck_residue, series_residue
from .multiplicity import local_intersection_multiplicity


def _at(fol: Foliation, point) -> Foliation:
    return fol.translate(point) if point else fol


def bb_residue(fol: Foliation, point=None) -> GaussRational:
    """Baum-Bott residue at an isolated singular point."""
    fol = _at(fol, point)
    f, g = fol.dual_vector_field()
    div = f.diff(fol.vx) + g.diff(fol.vy)
    return grothendieck_residue(div * div, f, g, vars=(fol.vx, fol.vy))


def bb_numeric(fol: Foliation, point, tol: float = 1e-9) -> complex:
    """trace^2 / det at a numeric singular point; the point must be
    certifiably nondegenerate."""
    f, g = fol.dual_vector_field()
    cx, cy = (complex(c) for c in point)
    at = {fol.vx: cx, fol.vy: cy}
    fx = f.diff(fol.vx).eval_complex(at)
    fy = f.diff(fol.vy).eval_complex(at)
    gx = g.diff(fol.vx).eval_complex(at)
    gy = g.diff(fol.vy).eval_complex(at)
    det = fx * gy - fy * gx
    if abs(det) <= tol:
        raise UnsupportedInputError(
            "numeric point has (nearly) degenerate linear part")
    tr = fx + gy
    return tr * tr / det


def cs_smooth_branch(fol: Foliation, branch_var: str, point=None) -> GaussRational:
    """Camacho-Sad index of the invariant axis branch_var = 0.

    The branch is the coordinate line on which branch_var vanishes; the
    form must leave it invariant (the transverse coefficient divisible
    by branch_var)."""
    fol = _at(fol, point)
    vx, vy = fol.vars()
    if branch_var == vx:
        axis_var, other = vx, vy
        trans, along = fol.b, fol.a
    elif branch_var == vy:
        axis_var, other = vy, vx
        trans, along = fol.a, fol.b
    else:
        raise ValueError(f"{branch_var} is not a chart variable of the form")
    reduced = exact_divide(trans, MultiPoly.var(axis_var))
    if reduced is None:
        raise ValueError(f"the line {axis_var} = 0 is not invariant")
    num = reduced.substitute_poly({axis_var: MultiPoly.const(0)}).trim()
    den = along.substitute_poly({axis_var: MultiPoly.const(0)}).trim()
    if den.is_zero():
        raise ValueError(
            f"the form vanishes identically on {axis_var} = 0")
    return -series_residue(num, den, other)


def _factored_shift(point, vars):
    if not point:
        return None
    px, py = point
    return {vars[0]: GaussRational.coerce(px),
            vars[1]: GaussRational.coerce(py)}


def bb_from_factored(factors, point=None, vars=("x", "y")) -> GaussRational:
    """Baum-Bott residue of the foliation with first integral
    prod g_i^(l_i), from pairwise intersection multiplicities."""
    factors = check_factors(factors)
    shift = _factored_shift(point, vars)
    total = ZERO
    for i in range(len(factors)):
        gi, li = factors[i]
        for j in range(i + 1, len(factors)):
            gj, lj = factors[j]
            m = local_intersection_multiplicity(gi, gj, shift)
            if m:
                diff = li - lj
                total = total + diff * diff / (li * lj) * m
    return -total


def cs_from_factored(factors, index: int, point=None,
                     vars=("x", "y")) -> GaussRational:
    """Camacho-Sad index along the branch g_index = 0 of the same
    foliation."""
    factors = check_factors(factors)
    if not 0 <= index < len(factors):
        raise ValueError("factor index out of range")
    shift = _factored_shift(point, vars)
    gi, li = factors[index]
    total = ZERO
    for j, (gj, lj) in enumerate(factors):
        if j == index:
            continue
        m = local_intersection_multiplicity(gi, gj, shift)
        if m:
            total = total + lj / li * m
    return -total
