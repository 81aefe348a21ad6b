"""Seeded request streams for the three benchmark workloads.

Each workload turns a seed into a stream of plain-data requests (tuples of
ints), runs one request against ``residua`` and checks the answer against
a value known from a theorem or from how the input was built, never
against ``residua``'s own report of success:

* ``global_bb``: the Baum-Bott residues of a degree d foliation of the
  projective plane sum to (d+2)^2.  The foliation has first integral
  L1^l1 L2^l2 L3^l3 for three affine lines in general position, a
  logarithmic foliation whose poles are the three lines plus the line at
  infinity (residue -(l1+l2+l3)); with k pole lines its degree is k-2, so
  d = 1 when the exponents sum to zero and d = 2 otherwise.
* ``bezout_generic``: an affine form a dx + b dy with deg a = deg b = n
  whose top parts satisfy x a_n + y b_n != 0 has projective degree n, and
  its singular points number n^2 + n + 1 with multiplicity.
* ``local_darboux``: the germ with first integral g1^p g2^(+-q), g1 and g2
  smooth branches crossing transversally at the origin, is dicritical
  exactly when the exponents have opposite signs (every curve
  g1^p = c g2^q passes through the origin) and has g1^p g2^(+-q) as a
  first integral by construction.

Request mixes are fixed patterns over the request index, so every seed
runs the same mix and only the coefficients change with the seed.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from math import comb

# Module functions are called through their module (verify.verify_baum_bott)
# so that the tracer's wrappers, bound into residua modules, see the calls.
import residua.blowup as blowup
import residua.darboux as darboux
import residua.verify as verify
from residua.foliation import Foliation
from residua.polynomials import MultiPoly
from residua.projective import ProjectiveFoliation
from residua.rationals import GaussRational

# Gaussian-integer coefficients of the lines have parts in [-LINE_C, LINE_C]
LINE_C = 3
LINE_EXPONENTS = (-3, -2, -1, 1, 2, 3)
# bezout_generic integer coefficients lie in [-BEZOUT_C, BEZOUT_C].  The
# divisor sieve over the eliminant's coefficients grows with them: at 5 a
# degree 2 request takes 0.1 s to 6 s, at 2 a degree 3 one up to 12 s, at 1
# up to about 3 s.
BEZOUT_C = 1
# local_darboux: linear parts in [-3, 3], quadratic terms in [-2, 2]
DARBOUX_LINEAR_C = 3
DARBOUX_QUADRATIC_C = 2
DARBOUX_EXPONENTS = range(1, 6)
# (p, q) of the requests in one cycle: every pair in turn.  The blow-up
# depth follows the pair, so a free draw let the p90 latency of a run
# hinge on which pairs the seed drew.  25 and the sign cycle 3 are
# coprime: in 75 requests every pair comes once with like signs and twice
# with opposite ones.
DARBOUX_PAIRS = tuple((p, q) for p in DARBOUX_EXPONENTS for q in DARBOUX_EXPONENTS)


def _gauss(rng: random.Random, bound: int) -> tuple[int, int]:
    return rng.randint(-bound, bound), rng.randint(-bound, bound)


def _general_position(lines) -> bool:
    """Pairwise non-parallel and not concurrent.  Products of these small
    Gaussian integers are exact in complex floating point."""
    rows = [[complex(*c) for c in line] for line in lines]
    for i in range(3):
        for j in range(i + 1, 3):
            if rows[i][0] * rows[j][1] - rows[i][1] * rows[j][0] == 0:
                return False
    (a, b, c), (d, e, f), (g, h, k) = rows
    return a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g) != 0


# -- global_bb ------------------------------------------------------------


def global_bb_request(rng: random.Random, index: int):
    """((line, line, line), (l1, l2, l3)) with line = (a, b, c) for
    a x + b y + c, each coefficient a Gaussian integer (re, im).

    Every fourth request has exponents summing to zero (degree 1); the
    rest have a nonzero sum (degree 2).  The lines are pairwise
    non-parallel and not concurrent, so the degree formula applies."""
    while True:
        lines = tuple(tuple(_gauss(rng, LINE_C) for _ in range(3))
                      for _ in range(3))
        if _general_position(lines):
            break
    want_degree_one = index % 4 == 0
    while True:
        exps = tuple(rng.choice(LINE_EXPONENTS) for _ in range(3))
        if (sum(exps) == 0) == want_degree_one:
            return lines, exps


def global_bb_degree(request) -> int:
    _, exps = request
    return 1 if sum(exps) == 0 else 2


# -- bezout_generic -------------------------------------------------------


def _monomials(n: int):
    return [(i, k - i) for k in range(n + 1) for i in range(k, -1, -1)]


def _gauss_divisors(k: int):
    """Every Gaussian integer dividing the nonzero integer k."""
    out = []
    for r in range(-abs(k), abs(k) + 1):
        for s in range(-abs(k), abs(k) + 1):
            norm = r * r + s * s
            if norm and (k * r) % norm == 0 and (k * s) % norm == 0:
                out.append((r, s))
    return out


def _has_gauss_root(coeffs) -> bool:
    """Whether sum coeffs[k] u^k (integers, coeffs[-1] != 0) has a root in
    Q(i).  A root alpha/beta in lowest terms has alpha | coeffs[0] and
    beta | coeffs[-1] in Z[i], so trying those quotients is complete."""
    if coeffs[0] == 0:
        return True
    m = len(coeffs) - 1
    for alpha in _gauss_divisors(coeffs[0]):
        for beta in _gauss_divisors(coeffs[-1]):
            # beta^m * f(alpha / beta) = sum c_k alpha^k beta^(m-k)
            re = im = 0
            for k, c in enumerate(coeffs):
                t = (c, 0)
                for _ in range(k):
                    t = (t[0] * alpha[0] - t[1] * alpha[1], t[0] * alpha[1] + t[1] * alpha[0])
                for _ in range(m - k):
                    t = (t[0] * beta[0] - t[1] * beta[1], t[0] * beta[1] + t[1] * beta[0])
                re += t[0]
                im += t[1]
            if re == 0 and im == 0:
                return True
    return False


# (degree, has a singular point with Gaussian-integer coordinates) of the
# requests in one cycle.  A degree 3 request costs about seven degree 2
# ones; at one in six a 40 s run holds about twenty of them and still
# about 130 requests in all.  An exact point costs a Milnor number: it
# doubles the cost of a degree 3 request and adds a third at degree 2.
# Left to chance, one seed drew 8 of 15 degree 3 requests with one and
# another 3, and their throughput differed by a fifth, so the cycle fixes
# them near the rates a free draw gives (2 in 5 at degree 2, 1 in 3 at 3).
BEZOUT_MIX = ((2, True), (2, False), (2, False), (2, True), (2, False), (3, True),
              (2, False), (2, True), (2, False), (2, False), (2, True), (3, False),
              (2, True), (2, False), (2, False), (2, True), (2, False), (3, False))
# Gaussian integers with real and imaginary parts in [-GAUSS_BOX, GAUSS_BOX]
# are tried as coordinates; nearly all exact points of these inputs are
# among them (others, such as (-1/3, -1/3), are rare)
GAUSS_BOX = 2
# every affine singular point of a bezout_generic input has |x|, |y| at most
# this.  Beyond it residua.univariate.durand_kerner raises RootFindingError
# on degree 3 inputs with simple, well separated points: its residual test
# (1e-10 * max |coefficient|) is not scaled by |z|^degree, so rounding alone
# fails it.  That is a program defect; test_perfbench.py reproduces it.
BEZOUT_RADIUS = 4
# Graeffe root-squaring steps behind the radius test: the bound it gives
# exceeds the largest root modulus by at most a factor (2 deg) ** (1 / 64),
# under 5% for the degree 9 eliminants of degree 3 pairs
GRAEFFE_STEPS = 6


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, c in enumerate(p):
        for j, d in enumerate(q):
            out[i + j] += c * d
    return out


def _gcd_degree(f, g) -> int:
    """Degree of gcd(f, g) over Q; coefficient lists low to high."""
    f = _trim([Fraction(c) for c in f])
    g = _trim([Fraction(c) for c in g])
    while g:
        while len(f) >= len(g):
            k, q = len(f) - len(g), f[-1] / g[-1]
            for i, c in enumerate(g):
                f[i + k] -= q * c
            _trim(f)
        f, g = g, f
    return len(f) - 1


def _squarefree(f) -> bool:
    return _gcd_degree(f, [k * c for k, c in enumerate(f)][1:]) == 0


def _det(m) -> int:
    """Determinant of an integer matrix, fraction-free (Bareiss)."""
    m = [row[:] for row in m]
    size, sign, prev = len(m), 1, 1
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def _along(poly, n, k, s):
    """Coefficients in y, formal degree n, of poly(s - k y, y)."""
    out = [0] * (n + 1)
    for (i, j), c in poly.items():
        for t in range(i + 1):
            out[t + j] += c * comb(i, t) * s ** (i - t) * (-k) ** t
    return out


def _resultant(a, b, n, k):
    """Res_y(a(s - k y, y), b(s - k y, y)) as integer coefficients in s,
    low to high: Sylvester determinants at n^2 + 1 points, interpolated.
    Its roots are the values of x + k y at the common zeros of a and b."""
    points = range(n * n + 1)
    values = []
    for s in points:
        f, g = _along(a, n, k, s), _along(b, n, k, s)
        rows = [[0] * r + f[::-1] + [0] * (n - 1 - r) for r in range(n)]
        rows += [[0] * r + g[::-1] + [0] * (n - 1 - r) for r in range(n)]
        values.append(_det(rows))
    coeffs = [Fraction(0)] * len(points)
    for i, xi in enumerate(points):
        basis, denom = [Fraction(1)], 1
        for j, xj in enumerate(points):
            if j != i:
                basis = _mul(basis, [-xj, 1])
                denom *= xi - xj
        for d, c in enumerate(basis):
            coeffs[d] += values[i] * c / denom
    return _trim([int(c) for c in coeffs])


def _root_bound(f) -> float:
    """An upper bound on the moduli of the roots of f (integers, low to
    high), within a factor (2 deg f) ** (1 / 2 ** GRAEFFE_STEPS) of the
    largest: Fujiwara's bound on the polynomial whose roots are those of f
    raised to the power 2 ** GRAEFFE_STEPS."""
    for _ in range(GRAEFFE_STEPS):
        even, odd = f[0::2], f[1::2]
        sq = _mul(even, even) + [0] * (len(f) - 2 * len(even) + 1)
        for i, c in enumerate(_mul(odd, odd)):
            sq[i + 1] -= c
        f = sq
    deg, lead = len(f) - 1, math.log(abs(f[-1]))
    logs = [(math.log(abs(f[deg - k]) / (2 if k == deg else 1)) - lead) / k
            for k in range(1, deg + 1) if f[deg - k]]
    return math.exp((math.log(2) + max(logs, default=-math.inf)) / 2 ** GRAEFFE_STEPS)


def _has_gauss_point(a, b) -> bool:
    """Whether a = b = 0 at some (x, y) with Gaussian-integer coordinates
    in the box.  Small Gaussian integers are exact in complex floats."""
    zs = [complex(r, s) for r in range(-GAUSS_BOX, GAUSS_BOX + 1)
          for s in range(-GAUSS_BOX, GAUSS_BOX + 1)]
    terms = [(i, j, a.get((i, j), 0), b.get((i, j), 0)) for i, j in set(a) | set(b)]
    for x in zs:
        for y in zs:
            if (sum(c * x ** i * y ** j for i, j, c, _ in terms) == 0
                    and sum(d * x ** i * y ** j for i, j, _, d in terms) == 0):
                return True
    return False


def bezout_cone(n: int, a, b):
    """Coefficients of x^k y^(n+1-k), k = 0..n+1, of C = x a_n + y b_n; a
    zero last one is the zero (1:0:0)."""
    return ([b[(0, n)]] + [a[(k - 1, n + 1 - k)] + b[(k, n - k)] for k in range(1, n + 1)]
            + [a[(n, 0)]])


def bezout_screen(n: int, a, b, cone) -> str:
    """Why the pair is not drawn ("ok" if it is), decided by exact integer
    algebra of the input alone, without residua.

    "non_generic": a singular point is not simple.  At infinity the points
    are the zeros (u:1:0) of C(u, 1), with Jacobian a_n(u, 1) C'(u, 1), so
    C(u, 1) must be squarefree and prime to a_n(u, 1); then all n^2 common
    zeros of a and b are affine, and they are simple when the resultant of
    some projection x + k y is squarefree of degree n^2.  residua raises
    UnsupportedInputError on a non-simple point with irrational coordinates,
    as documented: these inputs are not generic.
    "far": an affine singular point has |x| or |y| above BEZOUT_RADIUS."""
    top = [a[(i, n - i)] for i in range(n + 1)]
    if not _squarefree(cone) or _gcd_degree(cone, top) > 0:
        return "non_generic"
    swapped = {(j, i): c for (i, j), c in a.items()}, {(j, i): c for (i, j), c in b.items()}
    xs, ys = _resultant(a, b, n, 0), _resultant(*swapped, n, 0)
    if not any(len(r) == n * n + 1 and _squarefree(r)
               for r in (xs, ys, *(_resultant(a, b, n, k) for k in (1, -1, 2)))):
        return "non_generic"
    if max(_root_bound(xs), _root_bound(ys)) > BEZOUT_RADIUS:
        return "far"
    return "ok"


def bezout_request(rng: random.Random, index: int, screened=None):
    """(n, a, b) with a, b dicts {(i, j): c} for c x^i y^j of total degree
    at most n.

    The singular points at infinity are the zeros of the cone
    C = x a_n + y b_n (top parts a_n, b_n).  An exact one costs a Milnor
    number, a Groebner basis and matrix powers: 4-5 s at degree 3 against
    about 1 s for the whole request without.  Left to chance, a run's
    figures would depend on how many such requests the seed draws, so the
    top parts are redrawn until C has no zero with coordinates in Q(i).
    C != 0 also makes the projective degree n.  Pairs that bezout_screen
    turns down are redrawn too; `screened` counts them by reason.  So are
    pairs whose Gaussian-integer singular points do not match BEZOUT_MIX."""
    n, exact = BEZOUT_MIX[index % len(BEZOUT_MIX)]
    while True:
        a = {m: rng.randint(-BEZOUT_C, BEZOUT_C) for m in _monomials(n)}
        b = {m: rng.randint(-BEZOUT_C, BEZOUT_C) for m in _monomials(n)}
        cone = bezout_cone(n, a, b)
        if cone[-1] == 0 or _has_gauss_root(cone):
            continue
        if _has_gauss_point(a, b) != exact:
            continue
        why = bezout_screen(n, a, b, cone)
        if why == "ok":
            return n, a, b
        if screened is not None:
            screened[why] += 1


# -- local_darboux --------------------------------------------------------


def _branch(rng: random.Random, linear):
    poly = {(1, 0): linear[0], (0, 1): linear[1]}
    for m in ((2, 0), (1, 1), (0, 2)):
        c = rng.randint(-DARBOUX_QUADRATIC_C, DARBOUX_QUADRATIC_C)
        if c:
            poly[m] = c
    return poly


def local_darboux_request(rng: random.Random, index: int):
    """(g1, g2, p, e2) for the first integral g1^p g2^e2 with e2 = +-q.
    g1, g2 are dicts {(i, j): c} vanishing at the origin with independent
    linear parts.  Every third request has e2 > 0 (non-dicritical), the
    rest e2 < 0 (dicritical): with a 1:1 mix the median latency would fall
    in the gap between the fast and the slow verdict."""
    while True:
        l1 = (rng.randint(-DARBOUX_LINEAR_C, DARBOUX_LINEAR_C),
              rng.randint(-DARBOUX_LINEAR_C, DARBOUX_LINEAR_C))
        l2 = (rng.randint(-DARBOUX_LINEAR_C, DARBOUX_LINEAR_C),
              rng.randint(-DARBOUX_LINEAR_C, DARBOUX_LINEAR_C))
        if l1[0] * l2[1] - l1[1] * l2[0]:
            break
    g1 = _branch(rng, l1)
    g2 = _branch(rng, l2)
    p, q = DARBOUX_PAIRS[index % len(DARBOUX_PAIRS)]
    return g1, g2, p, q if index % 3 == 0 else -q


def expected_verdict(request) -> str:
    _, _, p, e2 = request
    return "dicritical" if (p > 0) != (e2 > 0) else "non_dicritical"


# -- streams --------------------------------------------------------------

MAKERS = {
    "global_bb": global_bb_request,
    "bezout_generic": bezout_request,
    "local_darboux": local_darboux_request,
}


def requests(workload: str, seed: int, screened=None):
    """Endless, deterministic stream of distinct requests for the seed.
    `screened` (a Counter) counts the bezout_generic draws turned down."""
    make = MAKERS[workload]
    if workload == "bezout_generic":
        make = functools.partial(make, screened=screened)
    rng = random.Random(f"{workload}:{seed}")
    seen = set()
    index = 0
    while True:
        req = make(rng, index)
        key = canonical(req)
        if key in seen:
            continue
        seen.add(key)
        yield req
        index += 1


def canonical(request) -> str:
    """Canonical text of a request: dicts in sorted key order."""
    def norm(v):
        if isinstance(v, dict):
            return tuple(sorted((k, norm(c)) for k, c in v.items()))
        if isinstance(v, tuple):
            return tuple(norm(c) for c in v)
        return v
    return repr(norm(request))


# -- requests against residua -----------------------------------------------

# residua modules each workload imports, for the set-up measurement
MODULES = {
    "global_bb": ("residua.darboux", "residua.projective", "residua.verify"),
    "bezout_generic": ("residua.foliation", "residua.projective"),
    "local_darboux": ("residua.darboux", "residua.blowup"),
}

BB_TOL = 1e-6


def _poly(terms) -> MultiPoly:
    """{(i, j): c} with c an int or a Gaussian integer (re, im)."""
    return MultiPoly(("x", "y"), {e: GaussRational(*c) if isinstance(c, tuple) else c
                                  for e, c in terms.items()})


def run_global_bb(req, probe):
    lines, exps = req
    factors = [(_poly({(1, 0): a, (0, 1): b, (0, 0): c}), e)
               for (a, b, c), e in zip(lines, exps)]
    pfol = ProjectiveFoliation.from_affine(darboux.one_form_from_factored(factors))
    report = verify.verify_baum_bott(pfol)
    target = (global_bb_degree(req) + 2) ** 2
    if report.exact:
        ok = report.total.re == target and report.total.im == 0
    else:
        ok = abs(complex(report.total) - target) <= BB_TOL
    exact = sum(1 for c in report.contributions if c.exact)
    return ("ok" if ok else "wrong"), exact, len(report.contributions)


def run_bezout(req, probe):
    n, a, b = req
    pfol = ProjectiveFoliation.from_affine(Foliation(_poly(a), _poly(b)))
    total = pfol.total_multiplicity()
    points = probe.take()
    status = "ok" if total == n * n + n + 1 else "wrong"
    return status, sum(1 for p in points if p.exact), len(points)


def run_local_darboux(req, probe):
    g1, g2, p, e2 = req
    factors = [(_poly(g1), p), (_poly(g2), e2)]
    fol = darboux.one_form_from_factored(factors)
    if not darboux.check_first_integral(fol, darboux.DarbouxSpec(factors)):
        return "wrong", 0, 0
    verdict = blowup.is_dicritical(fol).verdict
    if verdict == "undecided":
        return "undecided", 0, 0
    return ("ok" if verdict == expected_verdict(req) else "wrong"), 0, 0


RUNNERS = {
    "global_bb": run_global_bb,
    "bezout_generic": run_bezout,
    "local_darboux": run_local_darboux,
}
