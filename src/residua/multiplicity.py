"""Local intersection multiplicities as residues of the Jacobian.

By local duality the multiplicity of two plane curves f = 0 and g = 0 at
a common point is the Grothendieck residue of det J(f, g) dx dy / (f, g)
there, J the Jacobian matrix of (f, g) (Cattani and Dickenstein,
"Residues and resultants", 1998).  At a simple zero, where the linear
parts of the two curves are independent, the multiplicity is 1 and no
residue is computed; elsewhere the residue runs through the Sylvester
resultants of residues._resultant_residue.  The matrix helpers below
serve no multiplicity: the benchmark tracer wraps two of them by name.
"""

from __future__ import annotations

from .exceptions import InfiniteMultiplicityError, NonIntegralMultiplicityError
from .rationals import ZERO, ONE, GaussRational
from .polynomials import MultiPoly, jacobian_det_at_origin, sort_vars
from .residues import _resultant_residue

Matrix = list[list[GaussRational]]


# kept only because perfbench/tracer.py names it (via mat_pow)
def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, m, p = len(a), len(b), len(b[0]) if b else 0
    out = [[ZERO] * p for _ in range(n)]
    for i in range(n):
        row = a[i]
        for k in range(m):
            c = row[k]
            if c.is_zero():
                continue
            brow = b[k]
            orow = out[i]
            for j in range(p):
                if not brow[j].is_zero():
                    orow[j] = orow[j] + c * brow[j]
    return out


# kept only because perfbench/tracer.py names it
def mat_pow(a: Matrix, n: int) -> Matrix:
    size = len(a)
    result = [[ONE if i == j else ZERO for j in range(size)] for i in range(size)]
    base = a
    while n:
        if n & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base) if n > 1 else base
        n >>= 1
    return result


# kept only because perfbench/tracer.py names it (via kernel_basis)
def _echelon(rows: Matrix):
    """Row reduce in place (on a copy); returns (echelon rows, pivot cols)."""
    m = [list(r) for r in rows]
    pivots = []
    lead = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        pivot = None
        for r in range(lead, len(m)):
            if not m[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            continue
        m[lead], m[pivot] = m[pivot], m[lead]
        inv = m[lead][col].inverse()
        m[lead] = [c * inv for c in m[lead]]
        for r in range(len(m)):
            if r != lead and not m[r][col].is_zero():
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[lead])]
        pivots.append(col)
        lead += 1
        if lead == len(m):
            break
    return m[:lead], pivots


# kept only because perfbench/tracer.py names it
def kernel_basis(a: Matrix) -> list[list[GaussRational]]:
    """Basis vectors (as columns, returned as lists) of the null space."""
    if not a:
        return []
    ncols = len(a[0])
    ech, pivots = _echelon(a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -ech[r][f]
        basis.append(v)
    return basis


def local_intersection_multiplicity(f: MultiPoly, g: MultiPoly,
                                    point: dict | None = None) -> int:
    """Intersection multiplicity of f = 0 and g = 0 at a point (default
    the origin).  Raises InfiniteMultiplicityError when the curves share
    a component through the point, and when the pair is not in exactly
    two variables: in one they share it, in three or more their common
    zeros through the point are not isolated."""
    f = MultiPoly.coerce(f)
    g = MultiPoly.coerce(g)
    if point:
        f = f.shift(point)
        g = g.shift(point)
    if f.is_zero() or g.is_zero():
        raise InfiniteMultiplicityError("one curve is identically zero")
    vars = sort_vars(set(f.active_vars()) | set(g.active_vars()))
    origin = {v: ZERO for v in vars}
    if not f.eval_exact(origin).is_zero() or not g.eval_exact(origin).is_zero():
        return 0
    if len(vars) != 2:
        raise InfiniteMultiplicityError(
            f"common zeros are not isolated in the variables {vars}")
    vx, vy = vars
    if not jacobian_det_at_origin(f, g, vx, vy).is_zero():
        return 1
    jac = f.diff(vx) * g.diff(vy) - f.diff(vy) * g.diff(vx)
    value = _resultant_residue(jac, f, g, vars)
    re, im = value.re, value.im
    if im != 0 or re.denominator != 1 or re < 0:
        raise NonIntegralMultiplicityError(value)
    return int(re)
