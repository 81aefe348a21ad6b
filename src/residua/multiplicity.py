"""Exact linear algebra and local intersection multiplicities.

The multiplicity of two curves at a common point is computed through the
finite quotient ring of their ideal: multiplication-by-coordinate maps
are nilpotent exactly on the part of the quotient supported at the
origin, so the multiplicity is the dimension of the joint generalized
kernel.  When the origin is the only common zero this collapses to the
plain quotient dimension and the matrices are skipped.  At a simple
zero, where the linear parts of the two curves are independent, the
multiplicity is 1 and no Groebner basis is computed.
"""

from __future__ import annotations

from .exceptions import InfiniteMultiplicityError
from .rationals import ZERO, ONE, GaussRational
from .polynomials import (
    MultiPoly,
    exact_divide,
    jacobian_det_at_origin,
    poly_gcd,
    sort_vars,
)
from .groebner import (
    elimination_generator,
    groebner_basis,
    normal_form,
    standard_monomials,
)

Matrix = list[list[GaussRational]]


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


def mat_rank(a: Matrix) -> int:
    if not a or not a[0]:
        return 0
    return len(_echelon(a)[0])


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


def columns_to_matrix(cols: list[list[GaussRational]]) -> Matrix:
    if not cols:
        return []
    return [[col[i] for col in cols] for i in range(len(cols[0]))]


def subspace_intersection_dim(u: list, w: list) -> int:
    """dim(span u  intersect  span w), vectors given as lists."""
    if not u or not w:
        return 0
    stacked = columns_to_matrix(u + w)
    return len(u) + len(w) - mat_rank(stacked)


def multiplication_matrix(std, var: str) -> Matrix:
    """Matrix of multiplication by var on the quotient, columns indexed
    by the standard monomials."""
    vp = MultiPoly.var(var)
    cols = [std.coords(vp * std.monomial(k)) for k in range(len(std))]
    return columns_to_matrix(cols)


def local_intersection_multiplicity(f: MultiPoly, g: MultiPoly,
                                    point: dict | None = None) -> int:
    """Intersection multiplicity of f = 0 and g = 0 at a point (default
    the origin).  Raises InfiniteMultiplicityError when the curves share
    a component through the point."""
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
    if len(vars) == 2 and not jacobian_det_at_origin(f, g, *vars).is_zero():
        return 1
    return _quotient_multiplicity(f, g, vars)


def _quotient_multiplicity(f: MultiPoly, g: MultiPoly, vars) -> int:
    """local_intersection_multiplicity through the quotient ring, for
    nonzero f and g in the variables vars, both vanishing at the origin."""
    origin = {v: ZERO for v in vars}
    common = poly_gcd(f, g)
    if not common.is_constant():
        if common.eval_exact(origin).is_zero():
            raise InfiniteMultiplicityError(
                "curves share the component " + str(common))
        # the shared factor is a unit near the origin: divide it out
        f = exact_divide(f, common)
        g = exact_divide(g, common)
        vars = sort_vars(set(f.active_vars()) | set(g.active_vars()))
    ideal = groebner_basis([f, g])
    std = standard_monomials(ideal)
    if std is None:
        raise InfiniteMultiplicityError(
            "ideal quotient is infinite dimensional")
    n = len(std)
    if n == 0:
        return 0
    # if every common zero sits at the origin the local and global
    # quotients agree; detect that from the elimination generators
    if _only_zero_is_origin(f, g, vars):
        return n
    kernels = []
    for v in vars:
        m = multiplication_matrix(std, v)
        kernels.append(kernel_basis(mat_pow(m, n)))
    joint = kernels[0]
    for nxt in kernels[1:]:
        joint = _intersect_bases(joint, nxt)
    return len(joint)


def _intersect_bases(u: list, w: list) -> list:
    """Basis of the intersection of two spanned subspaces."""
    if not u or not w:
        return []
    stacked = columns_to_matrix([list(v) for v in u] + [[-c for c in v] for v in w])
    combos = kernel_basis(stacked)
    vecs = []
    for combo in combos:
        vec = [ZERO] * len(u[0])
        for a, basis_vec in zip(combo[:len(u)], u):
            if not a.is_zero():
                vec = [x + a * y for x, y in zip(vec, basis_vec)]
        vecs.append(vec)
    # prune dependent vectors
    out = []
    for v in vecs:
        if mat_rank(columns_to_matrix(out + [v])) > len(out):
            out.append(v)
    return out


def _only_zero_is_origin(f, g, vars) -> bool:
    for v in vars:
        try:
            r, _ = elimination_generator([f, g], v)
        except ValueError:
            return False
        # pure power of v means the projection hits only zero
        terms = [e for e in r.terms]
        low = min(sum(e) for e in terms)
        if len(terms) != 1 or low == 0:
            return False
    return True
