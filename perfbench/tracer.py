"""Per-layer tracing of ``residua`` from outside the package.

The tracer wraps public functions and methods of the ``residua`` modules
at run time; the package itself carries no tracing code.  Two kinds of
wrapper exist:

* a span wrapper records (name, parent span, request id, start, end) in
  column arrays kept in memory, and calls an optional observer with the
  arguments and the result or exception, to derive counts from return
  values;
* a count wrapper only increments a counter.  It is used for the
  arithmetic of ``GaussRational`` and ``MultiPoly``, called millions of
  times per run, where a span each would swamp the measurement.

``from .groebner import elimination_generator`` and similar imports bind
one function object into several modules, and class bodies alias
methods (``__rmul__ = __mul__``).  The installer therefore rebinds every
attribute of every loaded ``residua`` module, or of the class, that *is*
the wrapped object, and ``uninstall`` puts every original back.

A span's self time is its duration minus the durations of its direct
child spans.  A layer is the module part of a span name
(``groebner.basis`` belongs to ``groebner``).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

_perf = time.perf_counter

# span name -> (module, attribute path) of the wrapped callables
SPANS = {
    "polynomials.gcd": [("polynomials", "poly_gcd")],
    "polynomials.exact_divide": [("polynomials", "exact_divide")],
    "polynomials.substitute": [("polynomials", "MultiPoly.substitute_poly"),
                               ("polynomials", "MultiPoly.substitute")],
    "groebner.basis": [("groebner", "groebner_basis")],
    "groebner.elim": [("groebner", "elimination_generator")],
    "groebner.normal_form": [("groebner", "normal_form")],
    "univariate.roots": [("univariate", "rational_roots")],
    "univariate.dk": [("univariate", "durand_kerner")],
    "multiplicity.intersection": [("multiplicity", "local_intersection_multiplicity")],
    "multiplicity.linalg": [("multiplicity", "mat_pow"),
                            ("multiplicity", "kernel_basis")],
    "residues.grothendieck": [("residues", "grothendieck_residue")],
    "residues.series": [("residues", "series_residue")],
    "indices.bb_exact": [("indices", "bb_residue")],
    "indices.bb_numeric": [("indices", "bb_numeric")],
    "foliation.singular_points": [("foliation", "Foliation.singular_points")],
    "foliation.milnor": [("foliation", "Foliation.milnor_number")],
    "projective.from_affine": [("projective", "ProjectiveFoliation.from_affine")],
    "projective.chart": [("projective", "ProjectiveFoliation.chart")],
    "projective.singular_points": [("projective", "ProjectiveFoliation.singular_points")],
    "projective.total_multiplicity": [("projective", "ProjectiveFoliation.total_multiplicity")],
    "blowup.is_dicritical": [("blowup", "is_dicritical")],
    "blowup.blow_up": [("blowup", "blow_up")],
    "darboux.log_diff": [("darboux", "logarithmic_differential")],
    "darboux.one_form": [("darboux", "one_form_from_factored")],
    "darboux.check": [("darboux", "check_first_integral")],
    "verify.bb": [("verify", "verify_baum_bott")],
}

# counter name -> callables counted without a span
COUNTS = {
    "rationals.ops": [("rationals", "GaussRational.__mul__"),
                      ("rationals", "GaussRational.__add__"),
                      ("rationals", "GaussRational.__sub__"),
                      ("rationals", "GaussRational.inverse")],
    "polynomials.mul_calls": [("polynomials", "MultiPoly.__mul__")],
}


def _resolve(module: str, path: str):
    """(owner, attribute, raw value, callable) for residua.module.path."""
    owner = sys.modules["residua." + module]
    parts = path.split(".")
    for name in parts[:-1]:
        owner = getattr(owner, name)
    raw = vars(owner)[parts[-1]]
    func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
    return owner, parts[-1], raw, func


class Patches:
    """Alias-aware replacement of residua callables, undone by restore."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, module: str, path: str, make_wrapper) -> None:
        owner, attr, raw, func = _resolve(module, path)
        wrapped = make_wrapper(func)
        if isinstance(raw, classmethod):
            wrapped = classmethod(wrapped)
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(wrapped)
        if isinstance(owner, type):
            targets = [(owner, a) for a, v in list(vars(owner).items()) if v is raw]
        else:
            targets = [(mod, a) for mname, mod in list(sys.modules.items())
                       if mname == "residua" or mname.startswith("residua.")
                       for a, v in list(vars(mod).items()) if v is func]
        for tgt, a in targets:
            self._saved.append((tgt, a, vars(tgt)[a]))
            setattr(tgt, a, wrapped)

    def restore(self) -> None:
        for tgt, attr, original in reversed(self._saved):
            setattr(tgt, attr, original)
        self._saved.clear()


class ResultProbe:
    """Keeps what one residua callable returns, for an end-to-end figure
    the public call does not return (the singular points behind
    ProjectiveFoliation.total_multiplicity).  One list append per call."""

    def __init__(self, module: str, path: str):
        self.module = module
        self.path = path
        self._results: list = []
        self._patches = Patches()

    def _wrap(self, func):
        results = self._results

        @functools.wraps(func)
        def probed(*args, **kwargs):
            result = func(*args, **kwargs)
            results.append(result)
            return result

        return probed

    def install(self) -> None:
        self._patches.replace(self.module, self.path, self._wrap)

    def uninstall(self) -> None:
        self._patches.restore()

    def take(self) -> list:
        """Items of every result since the last take."""
        out = [item for result in self._results for item in result]
        self._results.clear()
        return out


class Tracer:
    """Spans and counters of one traced run, all kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.request = -1
        self.counters: dict[str, list] = {}
        self.sums: dict[str, float] = {}
        self.charts: set[tuple[int, str]] = set()
        self.max_depth = 0
        self._patches = Patches()

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str):
        """Context manager recording one span, used for request roots."""
        return _Span(self, self._name_id(name))

    def _open(self, nid: int) -> int:
        sid = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_request.append(self.request)
        self.span_end.append(0.0)
        self._stack.append(sid)
        self.span_start.append(_perf())
        return sid

    def _close(self, sid: int) -> None:
        self.span_end[sid] = _perf()
        self._stack.pop()

    def add(self, key: str, value: float) -> None:
        self.sums[key] = self.sums.get(key, 0) + value

    def wrap_span(self, name: str, func, observe=None):
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            sid = tracer._open(nid)
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                tracer._close(sid)
                if observe is not None:
                    observe(tracer, args, None, exc)
                raise
            tracer._close(sid)
            if observe is not None:
                observe(tracer, args, result, None)
            return result

        return traced

    @staticmethod
    def wrap_count(cell: list, func):
        @functools.wraps(func)
        def counted(*args, **kwargs):
            cell[0] += 1
            return func(*args, **kwargs)

        return counted

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every callable in SPANS and COUNTS."""
        for name, targets in SPANS.items():
            observe = OBSERVERS.get(name)
            for module, path in targets:
                self._patches.replace(
                    module, path,
                    lambda f, name=name, observe=observe:
                    self.wrap_span(name, f, observe))
        for name, targets in COUNTS.items():
            self.counters[name] = cell = [0]
            for module, path in targets:
                self._patches.replace(module, path,
                                      lambda f: self.wrap_count(cell, f))

    def uninstall(self) -> None:
        self._patches.restore()

    # -- results ------------------------------------------------------------

    def count(self, name: str) -> int:
        return self.counters[name][0]

    def self_times(self) -> dict[str, tuple[int, float]]:
        """span name -> (number of spans, total self time in seconds)."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, list] = {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            slot = out.setdefault(name, [0, 0.0])
            slot[0] += 1
            slot[1] += dur[i] - child[i]
        return {k: (c, s) for k, (c, s) in out.items()}

    def write_spans(self, path) -> int:
        """Write every span as one JSON line; returns the number written."""
        n = len(self.span_start)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i in range(n):
                fh.write(f"[{i},{self.span_parent[i]},{self.span_name[i]},"
                         f"{self.span_request[i]},{self.span_start[i]:.9f},"
                         f"{self.span_end[i]:.9f}]\n")
        return n


class _Span:
    __slots__ = ("tracer", "nid", "sid")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.sid = self.tracer._open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.sid)
        return False


# -- observers: counts derived from arguments and return values ------------


def _observe_basis(tracer, args, result, exc):
    if result is not None:
        tracer.add("groebner.basis_len", len(result))


def _observe_roots(tracer, args, result, exc):
    if result is not None:
        poly, var = args[0], args[1]
        tracer.add("univariate.roots_degree", poly.degree_in(var))
        tracer.add("univariate.exact_degree", sum(m for _, m in result[0]))


def _observe_dk(tracer, args, result, exc):
    if exc is not None:
        tracer.add("univariate.dk_failures", 1)


def _observe_chart(tracer, args, result, exc):
    tracer.charts.add((tracer.request, args[1]))


def _observe_dicritical(tracer, args, result, exc):
    if result is not None:
        tracer.max_depth = max(tracer.max_depth, result.depth)


OBSERVERS = {
    "groebner.basis": _observe_basis,
    "univariate.roots": _observe_roots,
    "univariate.dk": _observe_dk,
    "projective.chart": _observe_chart,
    "blowup.is_dicritical": _observe_dicritical,
}
