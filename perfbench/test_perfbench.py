"""Self-tests of the benchmark: python3 -m pytest perfbench"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
from residua.exceptions import RootFindingError  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _take(workload, seed, n):
    stream = workloads.requests(workload, seed)
    return "\n".join(workloads.canonical(next(stream)) for _ in range(n)).encode()


@pytest.mark.parametrize("workload", NAMES)
def test_same_seed_same_input_bytes(workload):
    assert _take(workload, 3, 24) == _take(workload, 3, 24)
    assert _take(workload, 3, 24) != _take(workload, 4, 24)


@pytest.mark.parametrize("workload", NAMES)
def test_requests_distinct(workload):
    stream = workloads.requests(workload, 5)
    texts = [workloads.canonical(next(stream)) for _ in range(60)]
    assert len(set(texts)) == len(texts)


def test_expected_answers_follow_the_input():
    stream = workloads.requests("global_bb", 1)
    degrees = [workloads.global_bb_degree(next(stream)) for _ in range(8)]
    assert degrees == [1, 2, 2, 2, 1, 2, 2, 2]
    stream = workloads.requests("local_darboux", 1)
    verdicts = [workloads.expected_verdict(next(stream)) for _ in range(6)]
    assert verdicts == ["non_dicritical", "dicritical", "dicritical"] * 2
    stream = workloads.requests("bezout_generic", 1)
    assert [next(stream)[0] for _ in range(12)] == ([2] * 5 + [3]) * 2


def test_gauss_root_test():
    assert workloads._has_gauss_root([1, 0, 1])        # u^2 + 1: +-i
    assert not workloads._has_gauss_root([2, 0, 1])    # u^2 + 2
    assert workloads._has_gauss_root([3, 1, 0, 2])     # u = -1
    assert workloads._has_gauss_root([1, 0, 0, 0, 4])  # (+-1 +- i) / 2
    assert not workloads._has_gauss_root([2, 2, 0, 1])  # Eisenstein at 2


def test_tracer_rebinds_every_alias_and_restores():
    import residua.foliation as foliation
    import residua.groebner as groebner
    import residua.residues as residues
    from residua.rationals import GaussRational

    original = groebner.elimination_generator
    mul = GaussRational.__dict__["__mul__"]
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = groebner.elimination_generator
        assert wrapped is not original
        assert foliation.elimination_generator is wrapped
        assert residues.elimination_generator is wrapped
        assert GaussRational.__dict__["__rmul__"] is GaussRational.__dict__["__mul__"]
        assert GaussRational.__dict__["__mul__"] is not mul
        GaussRational(2) * GaussRational(3)
        assert t.count("rationals.ops") >= 1
    finally:
        t.uninstall()
    assert groebner.elimination_generator is original
    assert foliation.elimination_generator is original
    assert GaussRational.__dict__["__mul__"] is mul
    assert GaussRational.__dict__["__rmul__"] is mul


def test_self_time_subtracts_children():
    t = tracer.Tracer()
    with t.span("a.outer"):
        with t.span("b.inner"):
            pass
    times = t.self_times()
    outer = t.span_end[0] - t.span_start[0]
    inner = t.span_end[1] - t.span_start[1]
    assert times["a.outer"][0] == 1
    assert times["a.outer"][1] == pytest.approx(outer - inner)
    assert times["b.inner"][1] == pytest.approx(inner)


def _run(workload, trace, seconds):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", NAMES)
def test_smoke_prints_every_end_to_end_metric(workload):
    summary, result = _run(workload, 0, 1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert summary["fail_frac"]["unit"] == "ratio"
    assert ("exact_point_frac" in summary) == (workload != "local_darboux")


@pytest.mark.parametrize("workload", NAMES)
def test_traced_smoke_reports_layers_and_bypass(workload):
    summary, result = _run(workload, 1, 2)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert set(summary["bypass_predictions"].values()) == {"held"}
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    spans = ROOT / summary["spans_file"]
    assert len(spans.read_text().splitlines()) == summary["spans"] + 1


def _bezout_input(n, a, b):
    a = {m: a.get(m, 0) for m in workloads._monomials(n)}
    b = {m: b.get(m, 0) for m in workloads._monomials(n)}
    return n, a, b, workloads.bezout_cone(n, a, b)


# a generic degree 3 pair with an affine singular point at |x| = 9.9
FAR = _bezout_input(3, {(0, 1): -1, (1, 1): -1, (1, 2): 1, (2, 0): 1, (2, 1): -1, (3, 0): -1},
                    {(0, 0): -1, (0, 2): 1, (0, 3): 1, (1, 2): 1, (2, 0): 1})
# a degree 2 pair with a non-simple affine singular point
NON_SIMPLE = _bezout_input(2, {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): -1, (2, 0): -1},
                           {(0, 0): -1, (0, 1): -1, (0, 2): 1, (1, 0): -1, (1, 1): 1, (2, 0): 1})


def test_bezout_screen():
    assert workloads.bezout_screen(*FAR) == "far"
    assert workloads.bezout_screen(*NON_SIMPLE) == "non_generic"
    stream = workloads.requests("bezout_generic", 1)
    for _ in range(6):
        n, a, b = next(stream)
        assert workloads.bezout_screen(n, a, b, workloads.bezout_cone(n, a, b)) == "ok"


def test_resultant_and_root_bound():
    # a = x - y, b = x + y - 2 meet at (1, 1): Res_y = 2x - 2 up to sign
    a = {(1, 0): 1, (0, 1): -1, (0, 0): 0}
    b = {(1, 0): 1, (0, 1): 1, (0, 0): -2}
    assert workloads._resultant(a, b, 1, 0) in ([-2, 2], [2, -2])
    bound = workloads._root_bound([-15, 2, 1])  # (x - 3)(x + 5)
    assert 5 <= bound <= 5 * 4 ** (1 / 2 ** workloads.GRAEFFE_STEPS)


def test_bezout_mix_follows_the_cycle():
    stream = workloads.requests("bezout_generic", 2)
    for n, exact in workloads.BEZOUT_MIX:
        m, a, b = next(stream)
        assert (m, workloads._has_gauss_point(a, b)) == (n, exact)


def test_speed_scales():
    from speed import REFERENCE_S, scales
    assert scales([2 * REFERENCE_S] * 3) == [0.5] * 3


@pytest.mark.xfail(raises=RootFindingError, strict=True,
                   reason="durand_kerner's residual test ignores |z|^degree; "
                          "bezout_generic draws no such input (BEZOUT_RADIUS)")
def test_known_defect_far_singular_point():
    from residua.foliation import Foliation
    from residua.projective import ProjectiveFoliation

    n, a, b, _ = FAR
    pfol = ProjectiveFoliation.from_affine(Foliation(workloads._poly(a), workloads._poly(b)))
    assert pfol.total_multiplicity() == n * n + n + 1
