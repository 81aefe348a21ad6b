"""Closed-loop benchmark of residua with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The client sends the next request only after the previous answer returns,
as a caller of the library waits for each answer; it starts no threads and,
apart from the set-up measurement, no processes.  Requests come from the
seeded stream in workloads.py and every answer is checked there against a
value known from a theorem or from how the input was built.

--trace 0 measures the end-to-end metrics for --seconds seconds of
request time; drawing the inputs and timing the speed reference of
speed.py are left out.  The timings are scaled to the reference speed,
as the host's speed drifts; the summary line gives them as measured too.
--trace 1 runs a fixed number of requests (set by --seconds) twice,
untraced and then under the outside tracer of tracer.py, writes the spans to
perfbench/out/ and reports the per-layer metrics and the tracing overhead.
The last line of output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it gives the full summary.

residua is imported from src/ of the checkout that holds this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("global_bb", "bezout_generic", "local_darboux")
# fresh interpreters timed per run; the median is reported
SETUP_RUNS = 15
# The tail percentile is fixed per workload so that a faster program is not
# measured at a different percentile.  Each is the highest of 50/75/90/95/99
# that keeps at least ten requests beyond it over the request counts seen in
# 40 s runs, except on bezout_generic: there p90 falls among the ~25
# degree 3 requests, and over seeds 301-310 it spread 0.16 (p75 0.08), too
# near the 0.25 bound for two sets of ten runs to agree.  Its p75 lies among
# the slowest degree 2 requests; the degree 3 requests lie beyond it.
TAIL_PERCENTILE = {"global_bb": 75, "bezout_generic": 75, "local_darboux": 90}
# requests per second of --seconds in a traced run: a fixed count, so that
# the counts of one seed repeat exactly; sized so that the untraced and the
# traced pass together take about --seconds
TRACE_RATE = {"global_bb": 0.5, "bezout_generic": 1.4, "local_darboux": 1.8}
# each pass of a traced run stops early past this multiple of --seconds
TRACE_CAP = 1.5
# the singular points behind total_multiplicity, for exact_point_frac
PROBES = {"bezout_generic": ("projective", "ProjectiveFoliation.singular_points")}
# layer counts the workload design predicts to be zero
BYPASS = {
    "global_bb": ("blowup.blow_up_calls",),
    "bezout_generic": ("blowup.blow_up_calls",),
    "local_darboux": ("groebner.basis_calls", "groebner.elim_calls",
                      "groebner.normal_form_calls"),
}


def measure_setup(modules) -> tuple[float, float]:
    """Median time to import the workload's residua modules in a fresh
    interpreter, module-level tables included: (scaled, as measured).
    Each interpreter times the reference after its imports for the scale."""
    code = ("import sys, time, statistics\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "t = time.perf_counter()\n"
            "for m in sys.argv[3:]:\n"
            "    __import__(m)\n"
            "t = time.perf_counter() - t\n"
            "sys.path.insert(0, sys.argv[2])\n"
            "import speed\n"
            "ref = statistics.median(speed.reference() for _ in range(5))\n"
            "print(repr(t), repr(t * speed.REFERENCE_S / ref))\n")
    times, scaled = [], []
    for _ in range(SETUP_RUNS):
        done = subprocess.run([sys.executable, "-c", code, str(SRC), str(HERE), *modules],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        t, ts = done.stdout.split()
        times.append(float(t))
        scaled.append(float(ts))
    return statistics.median(scaled), statistics.median(times)


def closed_loop(workload: str, seed: int, seconds: float | None = None,
                count: int | None = None, tracer=None) -> dict:
    """Run requests one at a time, for `seconds` or for `count` requests."""
    import speed
    import workloads
    from tracer import ResultProbe

    run = workloads.RUNNERS[workload]
    screened: Counter = Counter()
    stream = workloads.requests(workload, seed, screened)
    probe = ResultProbe(*PROBES[workload]) if workload in PROBES else None
    if probe is not None:
        probe.install()
    if tracer is not None:
        tracer.install()
    latencies: list[float] = []
    refs: list[float] = []
    statuses: Counter = Counter()
    exact_points = points = 0
    # drawing and screening the next input and timing the speed reference
    # are the client's work, not the library's: kept out of the measured time
    client = 0.0
    start = time.perf_counter()
    try:
        while True:
            elapsed = time.perf_counter() - start - client
            if count is None and latencies and elapsed >= seconds:
                break
            if count is not None and (len(latencies) >= count
                                      or elapsed >= TRACE_CAP * seconds):
                break
            t0 = time.perf_counter()
            req = next(stream)
            refs.append(speed.reference())
            client += time.perf_counter() - t0
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    status, ex, pts = run(req, probe)
                else:
                    tracer.request = len(latencies)
                    with tracer.span("request"):
                        status, ex, pts = run(req, probe)
            except Exception as exc:  # a failed request; the loop goes on
                status, ex, pts = type(exc).__name__, 0, 0
                if probe is not None:
                    probe.take()
            latencies.append(time.perf_counter() - t0)
            statuses[status] += 1
            exact_points += ex
            points += pts
        wall = time.perf_counter() - start - client
    finally:
        if tracer is not None:
            tracer.uninstall()
        if probe is not None:
            probe.uninstall()
    return {"latencies": latencies, "refs": refs, "statuses": statuses, "wall": wall,
            "exact_points": exact_points, "points": points,
            "screened_out": dict(sorted(screened.items()))}


def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile."""
    k = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def timings(workload: str, latencies, ok: int, wall: float, setup_s: float) -> dict:
    lat = sorted(latencies)
    return {
        "throughput_rps": _metric(ok / wall, "1/s"),
        "latency_p50_ms": _metric(1000 * statistics.median(lat), "ms"),
        "latency_tail_ms": _metric(1000 * percentile(lat, TAIL_PERCENTILE[workload]), "ms"),
        "setup_s": _metric(setup_s, "s"),
    }


def end_to_end(workload: str, loop: dict, setup: tuple[float, float]) -> tuple[dict, dict]:
    """Timings scaled to the reference speed (the metrics) and as measured
    (in the summary).  The wall time scales by the latency-weighted mean
    of the per-request scales."""
    import speed

    lat = loop["latencies"]
    n = len(lat)
    ok = loop["statuses"]["ok"]
    pct = TAIL_PERCENTILE[workload]
    scaled = [t * k for t, k in zip(lat, speed.scales(loop["refs"]))]
    metrics = timings(workload, scaled, ok, loop["wall"] * sum(scaled) / sum(lat), setup[0])
    metrics["peak_rss_mb"] = _metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    extra = {
        "measured": timings(workload, lat, ok, loop["wall"], setup[1]),
        "reference_ms": 1000 * statistics.median(loop["refs"]),
        "fail_frac": _metric((n - ok) / n, "ratio"),
        "latency_tail_percentile": pct,
        "requests_beyond_tail": n - math.ceil(pct / 100 * n),
    }
    if workload in ("global_bb", "bezout_generic"):
        extra["exact_point_frac"] = _metric(
            loop["exact_points"] / loop["points"] if loop["points"] else 0.0,
            "ratio")
    return metrics, extra


def per_layer(tracer, overhead: float) -> dict:
    times = tracer.self_times()

    def calls(name):
        return times.get(name, (0, 0.0))[0]

    def self_s(*names):
        return sum(times.get(name, (0, 0.0))[1] for name in names)

    def layer_s(layer):
        return sum((s for name, (_, s) in times.items()
                    if name.split(".")[0] == layer), 0.0)

    sums = tracer.sums
    roots_degree = sums.get("univariate.roots_degree", 0)
    chart_calls = calls("projective.chart")
    count, secs, ratio = "count", "s", "ratio"
    values = {
        "rationals.ops": (tracer.count("rationals.ops"), count),
        "polynomials.mul_calls": (tracer.count("polynomials.mul_calls"), count),
        "polynomials.gcd_calls": (calls("polynomials.gcd"), count),
        "polynomials.gcd_self_s": (self_s("polynomials.gcd"), secs),
        "polynomials.exact_divide_self_s": (self_s("polynomials.exact_divide"), secs),
        "polynomials.substitute_self_s": (self_s("polynomials.substitute"), secs),
        "groebner.basis_calls": (calls("groebner.basis"), count),
        "groebner.basis_self_s": (self_s("groebner.basis"), secs),
        "groebner.basis_len": (int(sums.get("groebner.basis_len", 0)), count),
        "groebner.elim_calls": (calls("groebner.elim"), count),
        "groebner.normal_form_calls": (calls("groebner.normal_form"), count),
        "univariate.roots_self_s": (self_s("univariate.roots"), secs),
        "univariate.exact_degree_share": (
            sums.get("univariate.exact_degree", 0) / roots_degree
            if roots_degree else 0.0, ratio),
        "univariate.dk_calls": (calls("univariate.dk"), count),
        "univariate.dk_self_s": (self_s("univariate.dk"), secs),
        "univariate.dk_failures": (int(sums.get("univariate.dk_failures", 0)), count),
        "multiplicity.calls": (calls("multiplicity.intersection"), count),
        "multiplicity.self_s": (layer_s("multiplicity"), secs),
        "multiplicity.linalg_self_s": (self_s("multiplicity.linalg"), secs),
        "residues.grothendieck_calls": (calls("residues.grothendieck"), count),
        "residues.grothendieck_self_s": (self_s("residues.grothendieck"), secs),
        "residues.series_self_s": (self_s("residues.series"), secs),
        "indices.bb_exact_calls": (calls("indices.bb_exact"), count),
        "indices.bb_numeric_calls": (calls("indices.bb_numeric"), count),
        "foliation.singular_points_self_s": (self_s("foliation.singular_points"), secs),
        "foliation.milnor_calls": (calls("foliation.milnor"), count),
        "projective.chart_calls": (chart_calls, count),
        "projective.chart_useful_ratio": (
            len(tracer.charts) / chart_calls if chart_calls else 0.0, ratio),
        "projective.singular_points_self_s": (self_s("projective.singular_points"), secs),
        "blowup.blow_up_calls": (calls("blowup.blow_up"), count),
        "blowup.self_s": (layer_s("blowup"), secs),
        "blowup.max_depth": (tracer.max_depth, count),
        "darboux.log_diff_self_s": (self_s("darboux.log_diff"), secs),
        "darboux.one_form_self_s": (self_s("darboux.one_form"), secs),
        "verify.bb_self_s": (self_s("verify.bb"), secs),
        "trace.overhead_ratio": (overhead, ratio),
    }
    return {name: _metric(v, unit) for name, (v, unit) in values.items()}


def traced_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    from tracer import Tracer

    count = max(4, round(seconds * TRACE_RATE[workload]))
    plain = closed_loop(workload, seed, seconds, count=count)
    tracer = Tracer()
    traced = closed_loop(workload, seed, seconds, count=count, tracer=tracer)
    # the overhead compares the same requests with and without tracing
    n = min(len(plain["latencies"]), len(traced["latencies"]))
    overhead = sum(plain["latencies"][:n]) / sum(traced["latencies"][:n])
    metrics = per_layer(tracer, overhead)
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{workload}-seed{seed}.jsonl"
    written = tracer.write_spans(spans_file)
    predictions = {name: ("held" if metrics[name]["value"] == 0 else "violated")
                   for name in BYPASS[workload]}
    extra = {"requests_planned": count, "spans": written,
             "spans_file": str(spans_file.relative_to(ROOT)),
             "bypass_predictions": predictions}
    return traced, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "residua").is_dir():
        print(f"residua sources not found under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads

    if args.trace:
        loop, metrics, extra = traced_run(args.workload, args.seed, args.seconds)
    else:
        setup = measure_setup(workloads.MODULES[args.workload])
        loop = closed_loop(args.workload, args.seed, args.seconds)
        metrics, extra = end_to_end(args.workload, loop, setup)
    statuses = loop["statuses"]
    attempted = sum(statuses.values())
    failed = attempted - statuses["ok"]
    summary = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "attempted": attempted,
               "outcomes": dict(sorted(statuses.items())),
               "wall_s": loop["wall"], "screened_out": loop["screened_out"],
               **extra, "metrics": metrics}
    print(json.dumps(summary))
    print(json.dumps({"correct": statuses["wrong"] == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
