"""Sparse multivariate polynomials and rational functions over Q(i).

A polynomial is a dict mapping exponent tuples to nonzero GaussRational
coefficients, together with the tuple of variable names the exponents
refer to.  Variable names come from a fixed global symbol table and are
always stored in that global order, so two polynomials can be aligned by
taking the union of their variable tuples.

Division, gcd and resultants are exact.  The multivariate gcd is the
classical primitive PRS algorithm (contents split off recursively, then a
pseudo-remainder sequence on primitive parts); the resultant is the
Sylvester determinant evaluated by fraction-free Bareiss elimination.
Both are deterministic, which the canonical printing relies on.  The
resultant is the package's only elimination of a variable: with its
cofactors (res = u*f + v*g, read off the same Sylvester matrix) it
gives the univariate polynomials behind singular points and residues.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

from .rationals import ZERO, ONE, GaussRational, gauss_int_gcd

GLOBAL_VARS = ("x", "y", "z", "t", "s", "u", "w", "Z1", "Z2", "Z3")
_VAR_INDEX = {v: k for k, v in enumerate(GLOBAL_VARS)}


def check_var(name: str) -> str:
    if name not in _VAR_INDEX:
        raise ValueError(f"unknown variable {name!r}; allowed: {', '.join(GLOBAL_VARS)}")
    return name


def sort_vars(names) -> tuple[str, ...]:
    return tuple(sorted(set(names), key=_VAR_INDEX.__getitem__))


@functools.lru_cache(maxsize=256)
def _union_vars(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[str, ...]:
    """sort_vars(a + b), computed once per pair of variable tuples."""
    return sort_vars(a + b)


@dataclass(frozen=True)
class TermOrder:
    """A lexicographic term order given by a precedence list.

    precedence[0] is the largest variable.  Graded comparison for
    printing uses total degree first, then this order.
    """

    precedence: tuple[str, ...]
    kind: str = "lex"

    def __post_init__(self):
        for v in self.precedence:
            check_var(v)
        if self.kind != "lex":
            raise ValueError("only lex orders are supported")
        if len(set(self.precedence)) != len(self.precedence):
            raise ValueError("duplicate variable in precedence")

    def key(self, vars: tuple[str, ...], exponent: tuple[int, ...]):
        return self.key_function(vars)(exponent)

    def key_function(self, vars: tuple[str, ...]):
        """key(vars, .) as a one-argument function, for sorting."""
        return _lex_key(self.precedence, vars)

    def graded_key(self, vars, exponent):
        return (sum(exponent), self.key(vars, exponent))


@functools.lru_cache(maxsize=None)
def _lex_key(precedence: tuple[str, ...], vars: tuple[str, ...]):
    """Reads an exponent over vars in precedence order, absent variables
    as 0: one permutation per (precedence, vars)."""
    pos = [vars.index(v) if v in vars else None for v in precedence]
    if len(pos) > 1 and None not in pos:
        return operator.itemgetter(*pos)
    return lambda e: tuple([0 if i is None else e[i] for i in pos])


def default_order(vars: tuple[str, ...]) -> TermOrder:
    return TermOrder(tuple(vars))


class MultiPoly:
    """Sparse polynomial in a subset of the global variables."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms):
        vars = tuple(vars)
        clean = {}
        for exp, coeff in terms.items():
            coeff = GaussRational.coerce(coeff)
            if coeff:
                clean[tuple(exp)] = coeff
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def const(cls, value) -> "MultiPoly":
        value = GaussRational.coerce(value)
        return cls((), {(): value} if value else {})

    @classmethod
    def var(cls, name: str) -> "MultiPoly":
        check_var(name)
        return cls((name,), {(1,): ONE})

    @classmethod
    def coerce(cls, value) -> "MultiPoly":
        if isinstance(value, MultiPoly):
            return value
        return cls.const(value)

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> GaussRational:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()), ZERO)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def degree_in(self, var: str) -> int:
        if var not in self.vars:
            return 0 if self.terms else -1
        i = self.vars.index(var)
        return max((e[i] for e in self.terms), default=-1)

    def order_at_zero(self) -> int | float:
        """Smallest total degree of a term; inf for the zero polynomial."""
        return min((sum(e) for e in self.terms), default=float("inf"))

    def active_vars(self) -> tuple[str, ...]:
        used = set()
        for e in self.terms:
            for v, k in zip(self.vars, e):
                if k:
                    used.add(v)
        return sort_vars(used)

    def trim(self) -> "MultiPoly":
        """Drop variables that no term actually uses."""
        used = self.active_vars()
        if used == self.vars:
            return self
        return self.align_to(used)

    def align_to(self, vars) -> "MultiPoly":
        vars = tuple(vars)
        if vars == self.vars:
            return self
        pos = {v: i for i, v in enumerate(vars)}
        for v in self.active_vars():
            if v not in pos:
                raise ValueError(f"cannot drop active variable {v}")
        new = {}
        for e, c in self.terms.items():
            exp = [0] * len(vars)
            for v, k in zip(self.vars, e):
                if k:
                    exp[pos[v]] = k
            new[tuple(exp)] = c
        return MultiPoly(vars, new)

    def homogeneous_part(self, k: int) -> "MultiPoly":
        return MultiPoly(self.vars, {e: c for e, c in self.terms.items() if sum(e) == k})

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    # -- arithmetic -----------------------------------------------------

    def _aligned(self, other):
        other = MultiPoly.coerce(other)
        vars = _union_vars(self.vars, other.vars)
        return self.align_to(vars), other.align_to(vars)

    def __add__(self, other):
        a, b = self._aligned(other)
        terms = dict(a.terms)
        for e, c in b.terms.items():
            terms[e] = terms.get(e, ZERO) + c
        return MultiPoly(a.vars, terms)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-MultiPoly.coerce(other))

    def __rsub__(self, other):
        return MultiPoly.coerce(other) - self

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussRational)):
            k = GaussRational.coerce(other)
            if not k:
                return MultiPoly(self.vars, {})
            return MultiPoly(self.vars, {e: c * k for e, c in self.terms.items()})
        a, b = self._aligned(other)
        terms = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(i + j for i, j in zip(e1, e2))
                prev = terms.get(e)
                terms[e] = c1 * c2 if prev is None else prev + c1 * c2
        return MultiPoly(a.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial power needs a nonnegative integer exponent")
        result = MultiPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, k) -> "MultiPoly":
        return self * GaussRational.coerce(k)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussRational)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = self._aligned(other)
        return a.terms == b.terms

    def __hash__(self):
        p = self.trim()
        return hash((p.vars, frozenset(p.terms.items())))

    # -- calculus -------------------------------------------------------

    def diff(self, var: str) -> "MultiPoly":
        if var not in self.vars:
            return MultiPoly(self.vars, {})
        i = self.vars.index(var)
        terms = {}
        for e, c in self.terms.items():
            if e[i]:
                de = list(e)
                de[i] -= 1
                terms[tuple(de)] = c * e[i]
        return MultiPoly(self.vars, terms)

    # -- leading data ---------------------------------------------------

    def leading_exponent(self, order: TermOrder) -> tuple[int, ...]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=order.key_function(self.vars))

    def leading_coeff(self, order: TermOrder) -> GaussRational:
        return self.terms[self.leading_exponent(order)]

    def monic(self, order: TermOrder | None = None) -> "MultiPoly":
        if not self.terms:
            return self
        if order is None:
            order = default_order(self.vars)
        inv = self.leading_coeff(order).inverse()
        return self * inv

    # -- evaluation and substitution ------------------------------------

    def eval_exact(self, point: dict[str, GaussRational]) -> GaussRational:
        total = ZERO
        for e, c in self.terms.items():
            val = c
            for v, k in zip(self.vars, e):
                if k:
                    val = val * (GaussRational.coerce(point[v]) ** k)
            total = total + val
        return total

    def eval_complex(self, point: dict[str, complex]) -> complex:
        total = 0j
        for e, c in self.terms.items():
            val = c.to_complex()
            for v, k in zip(self.vars, e):
                if k:
                    val *= complex(point[v]) ** k
            total += val
        return total

    def substitute_poly(self, bindings: dict[str, "MultiPoly"]) -> "MultiPoly":
        """Substitute polynomials for variables (unbound ones persist).

        The substitution is simultaneous, so {x: y, y: x} swaps.  When
        every image has at most one term, each term maps to one term by
        exponent arithmetic and no polynomial product is formed."""
        images = {v: MultiPoly.coerce(b) for v, b in bindings.items()}
        if all(len(p.terms) <= 1 for p in images.values()):
            return self._substitute_monomials(images)
        out = MultiPoly.const(0)
        for e, c in self.terms.items():
            term = MultiPoly.const(c)
            for v, k in zip(self.vars, e):
                if k:
                    term = term * (images.get(v, MultiPoly.var(v)) ** k)
            out = out + term
        return out

    def _substitute_monomials(self, images: dict[str, "MultiPoly"]) -> "MultiPoly":
        """substitute_poly for images that are 0 or c * monomial."""
        maps = [images[v] if v in images else MultiPoly.var(v) for v in self.vars]
        vars = sort_vars(w for p in maps for w in p.vars)
        pos = {w: j for j, w in enumerate(vars)}
        # per variable of self: None for a zero image, else the image's
        # (index, exponent) pairs over vars and its coefficient
        rows = []
        for p in maps:
            if not p.terms:
                rows.append(None)
                continue
            (e, c), = p.terms.items()
            rows.append(([(pos[w], k) for w, k in zip(p.vars, e) if k], c))
        terms: dict[tuple[int, ...], GaussRational] = {}
        for e, c in self.terms.items():
            exp = [0] * len(vars)
            for k, row in zip(e, rows):
                if not k:
                    continue
                if row is None:
                    break
                mono, coeff = row
                for j, m in mono:
                    exp[j] += m * k
                if not coeff.is_one():
                    c = c * coeff ** k
            else:
                key = tuple(exp)
                prev = terms.get(key)
                terms[key] = c if prev is None else prev + c
        return MultiPoly(vars, terms)

    def substitute(self, bindings: dict[str, "RatFunc | MultiPoly | GaussRational"]) -> "RatFunc":
        out = RatFunc.from_poly(MultiPoly.const(0))
        images = {v: RatFunc.coerce(b) for v, b in bindings.items()}
        for e, c in self.terms.items():
            term = RatFunc.from_poly(MultiPoly.const(c))
            for v, k in zip(self.vars, e):
                if k:
                    term = term * (images.get(v, RatFunc.from_poly(MultiPoly.var(v))) ** k)
            out = out + term
        return out

    def shift(self, point: dict[str, GaussRational]) -> "MultiPoly":
        """Translate so the given point moves to the origin: v -> v + p_v.

        Each shifted variable is expanded by the binomial theorem,
        (v + c)^k = sum_j comb(k, j) c^(k-j) v^j."""
        p = self.align_to(sort_vars(self.vars))
        for v, val in point.items():
            check_var(v)
            val = GaussRational.coerce(val)
            if not val or v not in p.vars:
                continue
            i = p.vars.index(v)
            powers = [ONE]
            for _ in range(p.degree_in(v)):
                powers.append(powers[-1] * val)
            # binomial[k][j] = comb(k, j) * val^(k-j)
            binomial = [[powers[k - j] * comb(k, j) for j in range(k + 1)]
                        for k in range(len(powers))]
            terms: dict[tuple[int, ...], GaussRational] = {}
            for e, c in p.terms.items():
                for j, b in enumerate(binomial[e[i]]):
                    exp = e[:i] + (j,) + e[i + 1:]
                    add = c * b
                    prev = terms.get(exp)
                    terms[exp] = add if prev is None else prev + add
            p = MultiPoly(p.vars, terms)
        return p

    # -- homogenization -------------------------------------------------

    def homogenize(self, var: str, degree: int) -> "MultiPoly":
        check_var(var)
        if var in self.active_vars():
            raise ValueError(f"homogenization variable {var} already occurs")
        if degree < self.degree():
            raise ValueError("target degree below the polynomial degree")
        vars = sort_vars(set(self.vars) | {var})
        p = self.align_to(vars)
        i = vars.index(var)
        terms = {}
        for e, c in p.terms.items():
            exp = list(e)
            exp[i] = degree - sum(e)
            terms[tuple(exp)] = c
        return MultiPoly(vars, terms)

    def dehomogenize(self, var: str) -> "MultiPoly":
        return self.substitute_poly({var: MultiPoly.const(1)}).trim()

    # -- truncation -----------------------------------------------------

    def truncate(self, bounds: dict[str, int]) -> "MultiPoly":
        """Drop terms whose exponent in some var exceeds its bound."""
        keep = {}
        for e, c in self.terms.items():
            ok = True
            for v, k in zip(self.vars, e):
                if v in bounds and k > bounds[v]:
                    ok = False
                    break
            if ok:
                keep[e] = c
        return MultiPoly(self.vars, keep)

    def coeff_of(self, exponent: dict[str, int]) -> GaussRational:
        """Coefficient of the monomial with the given exponents (others 0)."""
        vars = sort_vars(set(self.vars) | set(exponent))
        p = self.align_to(vars)
        target = tuple(exponent.get(v, 0) for v in vars)
        return p.terms.get(target, ZERO)

    # -- printing -------------------------------------------------------

    def sorted_terms(self, order: TermOrder | None = None):
        if order is None:
            order = default_order(self.vars if self.vars else ("x",))
        return sorted(
            self.terms.items(),
            key=lambda item: order.graded_key(self.vars, item[0]),
            reverse=True,
        )

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"MultiPoly({format_poly(self)})"


def _monomial_str(vars, exponent) -> str:
    parts = []
    for v, k in zip(vars, exponent):
        if k == 1:
            parts.append(v)
        elif k > 1:
            parts.append(f"{v}^{k}")
    return "*".join(parts)


def _coeff_negative(c: GaussRational) -> bool:
    if c.re:
        return c.re < 0
    return c.im < 0


def _coeff_str(c: GaussRational, mono: str) -> str:
    if not c.im:
        body = str(c.re)
        if mono:
            body = mono if c.re == 1 else f"{body}*{mono}"
        return body
    if not c.re:
        if c.im == 1:
            return f"i*{mono}" if mono else "i"
        body = f"{c.im}*i"
        return f"{body}*{mono}" if mono else body
    body = f"({c})"
    return f"{body}*{mono}" if mono else body


def format_poly(p: MultiPoly, order: TermOrder | None = None) -> str:
    """Canonical text: graded-lex descending within the active order."""
    if not p.terms:
        return "0"
    pieces = []
    for exponent, coeff in p.sorted_terms(order):
        mono = _monomial_str(p.vars, exponent)
        neg = _coeff_negative(coeff)
        if neg:
            coeff = -coeff
        body = _coeff_str(coeff, mono)
        if not pieces:
            pieces.append(f"-{body}" if neg else body)
        else:
            pieces.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(pieces)


def jacobian_det_at_origin(f: MultiPoly, g: MultiPoly,
                           vx: str, vy: str) -> GaussRational:
    """det of the Jacobian matrix of (f, g) in the ordered pair (vx, vy)
    at the origin, read off the linear coefficients."""
    return (f.coeff_of({vx: 1}) * g.coeff_of({vy: 1})
            - f.coeff_of({vy: 1}) * g.coeff_of({vx: 1}))


# -- exact division and gcd ---------------------------------------------


def exact_divide(p: MultiPoly, d: MultiPoly) -> MultiPoly | None:
    """Quotient p/d when the division is exact, else None."""
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return MultiPoly(p.vars, {})
    if d.is_constant():
        return p * d.constant_value().inverse()
    vars = sort_vars(set(p.vars) | set(d.vars))
    p = p.align_to(vars)
    d = d.align_to(vars)
    order = default_order(vars)
    dlt = d.leading_exponent(order)
    dlc = d.terms[dlt]
    quotient: dict[tuple[int, ...], GaussRational] = {}
    rest = p
    while rest.terms:
        lt = rest.leading_exponent(order)
        q = tuple(a - b for a, b in zip(lt, dlt))
        if any(k < 0 for k in q):
            return None
        qc = rest.terms[lt] / dlc
        quotient[q] = qc
        rest = rest - MultiPoly(vars, {q: qc}) * d
    return MultiPoly(vars, quotient)


def _univar_view(p: MultiPoly, var: str) -> dict[int, MultiPoly]:
    """Coefficients of powers of var, as polynomials in the other vars."""
    others = tuple(v for v in p.vars if v != var)
    i = p.vars.index(var)
    coeffs: dict[int, dict] = {}
    for e, c in p.terms.items():
        rest = tuple(k for j, k in enumerate(e) if j != i)
        coeffs.setdefault(e[i], {})[rest] = c
    return {k: MultiPoly(others, terms) for k, terms in coeffs.items()}


def _pseudo_rem(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    n = g.degree_in(var)
    gv = _univar_view(g.align_to(sort_vars(set(g.vars) | {var})), var)
    lc_g = gv[n]
    xv = MultiPoly.var(var)
    while not f.is_zero() and f.degree_in(var) >= n:
        d = f.degree_in(var)
        fv = _univar_view(f.align_to(sort_vars(set(f.vars) | {var})), var)
        lc_f = fv[d]
        f = f * lc_g - lc_f * (xv ** (d - n)) * g
    return f


def _content_wrt(p: MultiPoly, var: str) -> MultiPoly:
    """Monic gcd of the coefficients of p as a polynomial in var, folded
    from the highest power of var down and stopped once it is constant
    (the top coefficient of a homogeneous p has the lowest degree)."""
    view = _univar_view(p, var)
    c = MultiPoly.const(0)
    for k in sorted(view, reverse=True):
        c = poly_gcd(c, view[k])
        if c.is_constant() and not c.is_zero():
            break
    return c


def poly_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Monic gcd (leading coefficient 1 in the global lex order)."""
    p, q = p.trim(), q.trim()
    if p.is_zero():
        return q.monic() if q else q
    if q.is_zero():
        return p.monic()
    if p.is_constant() or q.is_constant():
        return MultiPoly.const(1)
    vars = sort_vars(set(p.vars) | set(q.vars))
    var = next(v for v in vars if p.degree_in(v) > 0 or q.degree_in(v) > 0)
    p = p.align_to(sort_vars(set(vars)))
    q = q.align_to(p.vars)
    if p.degree_in(var) == 0 or q.degree_in(var) == 0:
        # var appears in only one of them: gcd divides that one's content
        with_var = p if p.degree_in(var) > 0 else q
        without = q if with_var is p else p
        return poly_gcd(without, _content_wrt(with_var, var))
    cont_p = _content_wrt(p, var)
    cont_q = _content_wrt(q, var)
    pp = exact_divide(p, cont_p)
    qq = exact_divide(q, cont_q)
    while not qq.is_zero():
        r = _pseudo_rem(pp, qq, var)
        if r.is_zero():
            pp = qq
            qq = r
            break
        r = exact_divide(r, _content_wrt(r, var))
        pp, qq = qq, r * gaussian_content([r]).inverse()
    g = exact_divide(pp, _content_wrt(pp, var))
    g = g * poly_gcd(cont_p, cont_q)
    return g.monic().trim()


def gaussian_content(polys) -> GaussRational:
    """Scalar content of a family: the Z[i]-gcd of all coefficients after
    clearing the common denominator, as a Gaussian rational.

    Dividing the family by this makes their coefficients coprime Gaussian
    integers with a deterministic unit choice.
    """
    coeffs = [c.triple for p in polys for c in p.terms.values()]
    if not coeffs:
        return GaussRational(1)
    den = lcm(*(d for _, _, d in coeffs))
    g = (0, 0)
    for a, b, d in coeffs:
        g = gauss_int_gcd(g, (a * (den // d), b * (den // d)))
    return GaussRational(Fraction(g[0], den), Fraction(g[1], den))


# -- resultants ---------------------------------------------------------


def poly_det(matrix: list[list[MultiPoly]]) -> MultiPoly:
    """Determinant of a square polynomial matrix, fraction-free Bareiss."""
    n = len(matrix)
    if n == 0:
        return MultiPoly.const(1)
    m = [row[:] for row in matrix]
    sign = 1
    prev = MultiPoly.const(1)
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot = next((i for i in range(k + 1, n) if not m[i][k].is_zero()), None)
            if pivot is None:
                return MultiPoly.const(0)
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = exact_divide(num, prev)
            m[i][k] = MultiPoly.const(0)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign > 0 else -det


def _sylvester_rows(f: MultiPoly, g: MultiPoly, var: str):
    """Sylvester matrix of f and g in var, of positive degrees m and n:
    rows var^(n-1) f, ..., f, var^(m-1) g, ..., g over the columns
    var^(m+n-1), ..., 1."""
    zero = MultiPoly.const(0)

    def shifts(p, deg, count):
        view = _univar_view(p.align_to(sort_vars(set(p.vars) | {var})), var)
        row = [view.get(deg - j, zero) for j in range(deg + 1)]
        return [[zero] * i + row + [zero] * (count - 1 - i) for i in range(count)]

    m, n = f.degree_in(var), g.degree_in(var)
    return shifts(f, m, n) + shifts(g, n, m)


def resultant(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """Sylvester-determinant resultant eliminating var; f^n when f is
    free of var and g has degree n in var."""
    check_var(var)
    if f.is_zero() or g.is_zero():
        return MultiPoly.const(0)
    m, n = f.degree_in(var), g.degree_in(var)
    if m == 0 or n == 0:
        return (f ** n * g ** m).trim()
    return poly_det(_sylvester_rows(f, g, var)).trim()


def resultant_cofactors(f: MultiPoly, g: MultiPoly, var: str):
    """(res, u, v) with res = u*f + v*g the resultant eliminating var.

    u and v are the determinants of the Sylvester matrix with its last
    column replaced by (var^(n-1), ..., 1, 0, ..., 0) and by
    (0, ..., 0, var^(m-1), ..., 1); by Cramer's rule they sum to res
    against f and g.  A polynomial free of var takes the power formula
    res = f^n, u = f^(n-1), v = 0.  Raises ValueError when neither
    involves var: the resultant 1 is then not in their ideal."""
    check_var(var)
    m, n = f.degree_in(var), g.degree_in(var)
    if max(m, n) <= 0:
        raise ValueError(f"neither polynomial involves {var}")
    zero = MultiPoly.const(0)
    if m <= 0:
        return (f ** n).trim(), (f ** (n - 1)).trim(), zero
    if n <= 0:
        return (g ** m).trim(), zero, (g ** (m - 1)).trim()
    t = MultiPoly.var(var)
    f_col = [t ** (n - 1 - i) for i in range(n)] + [zero] * m
    g_col = [zero] * n + [t ** (m - 1 - i) for i in range(m)]
    rows = _sylvester_rows(f, g, var)
    u = poly_det([row[:-1] + [c] for row, c in zip(rows, f_col)]).trim()
    v = poly_det([row[:-1] + [c] for row, c in zip(rows, g_col)]).trim()
    return (u * f + v * g).trim(), u, v


# -- rational functions -------------------------------------------------


class RatFunc:
    """Reduced fraction of polynomials; the denominator is monic."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly):
        num = MultiPoly.coerce(num)
        den = MultiPoly.coerce(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = MultiPoly.const(1)
        else:
            g = poly_gcd(num, den)
            if not g.is_constant():
                num = exact_divide(num, g)
                den = exact_divide(den, g)
            lc = den.leading_coeff(default_order(den.vars)) if den.terms else ONE
            if not lc.is_one():
                inv = lc.inverse()
                num = num * inv
                den = den * inv
        object.__setattr__(self, "num", num.trim())
        object.__setattr__(self, "den", den.trim())

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @classmethod
    def from_poly(cls, p) -> "RatFunc":
        return cls(MultiPoly.coerce(p), MultiPoly.const(1))

    @classmethod
    def coerce(cls, value) -> "RatFunc":
        if isinstance(value, RatFunc):
            return value
        return cls.from_poly(MultiPoly.coerce(value))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def is_poly(self) -> bool:
        return self.den.is_constant()

    def as_poly(self) -> MultiPoly:
        if not self.is_poly():
            raise ValueError(f"not a polynomial: {self}")
        return self.num * self.den.constant_value().inverse()

    def __add__(self, other):
        other = RatFunc.coerce(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-RatFunc.coerce(other))

    def __rsub__(self, other):
        return RatFunc.coerce(other) - self

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __mul__(self, other):
        other = RatFunc.coerce(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RatFunc.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return RatFunc.coerce(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return RatFunc(self.den, self.num) ** (-n)
        return RatFunc(self.num ** n, self.den ** n)

    def diff(self, var: str) -> "RatFunc":
        return RatFunc(
            self.num.diff(var) * self.den - self.num * self.den.diff(var),
            self.den * self.den,
        )

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussRational, MultiPoly)):
            other = RatFunc.coerce(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.is_poly():
            return format_poly(self.as_poly())
        return f"({format_poly(self.num)})/({format_poly(self.den)})"

    def __repr__(self):
        return f"RatFunc({self})"
