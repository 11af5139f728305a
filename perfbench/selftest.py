"""Fast self-test of the benchmark's own arithmetic, on synthetic data:
span self time, module outer time, per-layer derivation, rate derivation,
check counting, and agreement of BENCHMARK.json with the code's metric tables.

    python3 perfbench/selftest.py

Needs neither votedyn nor numpy; exits 1 on the first failed expectation.
"""

import json
import math
from pathlib import Path
import sys

import run
import spans

FAILURES = []


def expect(cond: bool, what: str) -> None:
    if not cond:
        FAILURES.append(what)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


# root A [0,10] with children B [1,4] (which has child C [2,3]) and D [5,9];
# a second root E [10,12] from another module, and a nested fixed-point call
SYNTH = [
    ["cli_io.main", 0.0, 10.0, -1],  # 0: self 10 - 3 - 4 = 3
    ["sbm_graph.generate_sbm", 1.0, 4.0, 0],  # 1: self 3 - 1 = 2
    ["voting_core.make_initial", 2.0, 3.0, 1],  # 2: self 1
    ["fixed_point_analysis.analyze", 5.0, 9.0, 0],  # 3: self 4 - 2 = 2
    ["fixed_point_analysis.fixed_point_locations", 6.0, 8.0, 3],  # 4: self 2
    ["fixed_point_analysis.threshold_r", 10.0, 12.0, -1],  # 5: self 2
]


def test_self_times():
    got = spans.self_times(SYNTH)
    expect(all(close(a, b) for a, b in zip(got, [3, 2, 1, 2, 2, 2])), f"self_times {got}")
    roots = sum(end - start for _n, start, end, parent in SYNTH if parent < 0)
    expect(close(sum(got), roots), "self times must partition the root spans")


def test_outer_time():
    # the nested fixed_point_locations call sits inside analyze: counted once
    expect(close(spans.outer_time(SYNTH, "fixed_point_analysis."), 4 + 2), "outer_time")
    expect(close(spans.outer_time(SYNTH, "sbm_graph."), 3), "outer_time single")


def test_layer_metrics():
    counters = {"graph_bytes": 3 * spans.MIB, "edges": 7, "sampling_bytes": 0, "trials": 2}
    m = spans.layer_metrics(SYNTH, counters, traced_wall=16.0, output_bytes=5)
    expect(close(m["sbm_graph.generate_sbm.s"], 3), "generate_sbm.s")
    expect(m["sbm_graph.generate_sbm.calls"] == 1, "generate_sbm.calls")
    expect(close(m["cli_io.main.self_s"], 3), "cli_io.main.self_s")
    expect(close(m["voting_core.make_initial.s"], 1), "make_initial.s")
    expect(m["voting_core.step_sampling.us_per_call"] == 0.0, "us_per_call with no calls")
    expect(close(m["experiment_harness.graphs_per_trial"], 0.5), "graphs_per_trial = 1 / 2")
    expect(close(m["fixed_point_analysis.s"], 6), "fixed_point_analysis.s")
    expect(close(m["sbm_graph.graph_mib"], 3), "graph_mib")
    expect(close(m["trace.self_cover"], 12 / 16), "self_cover = root time / traced wall")
    missing = set(spans.LAYER_METRICS) - set(m) - {"trace.overhead_s"}
    expect(not missing, f"layer metrics not derived: {sorted(missing)}")


def test_sampling_bytes():
    # bo3 on 2000 vertices with int64 ids and offsets
    expect(spans.sampling_bytes(2000, 3, 8, 8) == 2000 * 3 * 25 + 2000 * 18, "sampling_bytes")
    expect(spans._draws("best_of_5") == 5 and spans._draws("bo2") == 2, "draw counts")


def test_tracer_nesting():
    tracer = spans.Tracer()

    def inner(x):
        return x + 1

    inner_t = tracer._wrap("m.inner", inner)

    def outer(x):
        return inner_t(x) * 2

    outer_t = tracer._wrap("m.outer", outer)
    expect(outer_t(1) == 4, "wrapped result")
    names = [(s[0], s[3]) for s in tracer.spans]
    expect(names == [("m.outer", -1), ("m.inner", 0)], f"span parents {names}")
    expect(tracer.stack == [], "stack unwound")


def test_rates_and_checks():
    expect(close(run.rate(100, 4.0), 25.0) and run.rate(5, 0.0) == 0.0, "rate")
    passes = [
        {"checks": [["a", True, 0], ["b", False, 30.0]], "wall_s": 2.0, "work": 10, "rss_mib": 5.0},
        {"checks": [["a", True, 0]], "wall_s": 4.0, "work": 10, "rss_mib": 7.0},
        {"checks": [["a", True, 0]], "wall_s": 1.0, "work": 10, "rss_mib": 6.0},
    ]
    attempted, failed = run.count_checks(passes)
    expect((attempted, failed) == (4, 1), f"count_checks {(attempted, failed)}")
    expect(close(run.fail_frac(attempted, failed), 0.25), "fail_frac")
    e2e = run.end_to_end([0.3, 0.1, 0.2], passes)
    expect(close(e2e["setup_s"], 0.2) and close(e2e["wall_s"], 2.0), "medians")
    expect(close(e2e["peak_rss_mib"], 6.0) and close(e2e["work_per_s"], 5.0), "rate median")
    traced = [{"layers": {"trace.wall_s": 3.0}}, {"layers": {"trace.wall_s": 5.0}}]
    expect(close(run.per_layer(passes, traced)["trace.overhead_s"], 2.0), "overhead = 4 - 2")


def test_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect(e2e == run.END_TO_END, f"end_to_end table differs: {e2e}")
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(layers == {k: u for k, (u, _) in spans.LAYER_METRICS.items()}, "per_layer table differs")
    expect({w["name"] for w in spec["workloads"]} == set(run.RATE_NAMES), "workload names differ")


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
    for what in FAILURES:
        print(f"FAIL {what}")
    print("perfbench selftest:", "failed" if FAILURES else "ok")
    sys.exit(1 if FAILURES else 0)
