"""Span tracing of votedyn's public functions, and the per-layer metrics
derived from the spans.

A Tracer replaces each public function of each votedyn module with a wrapper
that records one span (name, start, end, parent index) per call. It rebinds
every module attribute that holds the original function, so callers that
imported a function by name (concentration_probe's step_probabilities, the
package's re-exports) reach the wrapper too. Spans stay in memory; the child
process turns them into per-layer metrics when its pass ends. Only the traced
child process ever installs wrappers.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

MODULES = (
    "sbm_graph",
    "voting_core",
    "experiment_harness",
    "induced_dynamics",
    "fixed_point_analysis",
    "concentration_probe",
    "cli_io",
)
GRAPH_BUILDERS = ("sbm_graph.generate_sbm", "sbm_graph.load_graph", "sbm_graph.graph_from_edges")
MIB = 1 << 20

# name -> (unit, which end-to-end metric on which workload it should move)
LAYER_METRICS = {
    "sbm_graph.generate_sbm.s": ("s", "work_per_s (trials) on deviation: CSR build"),
    "sbm_graph.generate_sbm.calls": ("count", "work_per_s (trials) on deviation"),
    "sbm_graph.save_graph.s": ("s", "work_per_s (edges) on goodness: graph text I/O"),
    "sbm_graph.load_graph.s": ("s", "work_per_s (edges) on goodness: graph text I/O"),
    "sbm_graph.graph_from_edges.s": ("s", "work_per_s (evals) on exact_small"),
    "sbm_graph.graph_from_edges.calls": ("count", "work_per_s (evals) on exact_small"),
    "sbm_graph.graph_mib": ("MiB", "peak_rss_mib on deviation and goodness: id width"),
    "sbm_graph.edges": ("count", "peak_rss_mib on deviation and goodness"),
    "voting_core.step_sampling.s": ("s", "work_per_s (steps) on sink"),
    "voting_core.step_sampling.calls": ("count", "work_per_s (steps) on sink"),
    "voting_core.step_sampling.us_per_call": ("us", "work_per_s (steps) on sink"),
    "voting_core.step_sampling.bytes_per_call": ("B_computed", "work_per_s (steps) on sink"),
    "voting_core.step_probabilities.s": ("s", "work_per_s on exact_small (evals) and goodness (edges)"),
    "voting_core.step_probabilities.calls": ("count", "work_per_s on exact_small and goodness"),
    "voting_core.step_probabilities.us_per_call": ("us", "work_per_s on exact_small and goodness"),
    "voting_core.make_initial.s": ("s", "wall_s on sink and deviation"),
    "experiment_harness.run_trials.self_s": ("s", "work_per_s (steps) on sink: the run loop"),
    "experiment_harness.graphs_per_trial": ("ratio", "work_per_s and peak_rss_mib on deviation"),
    "induced_dynamics.iterate.s": ("s", "flat everywhere"),
    "induced_dynamics.iterate.calls": ("count", "flat everywhere"),
    "fixed_point_analysis.s": ("s", "flat everywhere"),
    "concentration_probe.w_stat.s": ("s", "work_per_s (edges) on goodness: neighbour count"),
    "concentration_probe.w_stat.calls": ("count", "work_per_s (edges) on goodness"),
    "concentration_probe.w_concentration_scan.s": ("s", "work_per_s (edges) on goodness"),
    "concentration_probe.p2_scan.s": ("s", "work_per_s (edges) on goodness"),
    "concentration_probe.p3_scan.s": ("s", "work_per_s (edges) on goodness"),
    "concentration_probe.variance_profile.s": ("s", "work_per_s (edges) on goodness"),
    "cli_io.main.self_s": ("s", "setup_s and wall_s on sink, deviation and goodness"),
    "cli_io.output_bytes": ("B", "wall_s on sink, deviation and goodness"),
    "trace.wall_s": ("s", "traced wall_s, for the overhead"),
    "trace.self_cover": ("ratio", "sum of span self times over traced wall_s"),
    "trace.overhead_s": ("s", "traced wall_s minus untraced wall_s in the same run"),
}


def sampling_bytes(nv: int, draws: int, id_bytes: int, offset_bytes: int) -> int:
    """Computed (not measured) bytes one sampling step touches: per sample a
    float64 uniform, an int64 slot index, a gathered neighbour id and a bool
    vote; per vertex an offset, an int64 degree, and the old and new opinion."""
    return nv * draws * (8 + 8 + id_bytes + 1) + nv * (offset_bytes + 8 + 1 + 1)


def _draws(sampler: str) -> int:
    return 2 if sampler == "bo2" else 3 if sampler == "bo3" else int(sampler.rsplit("_", 1)[1])


def _count_graph(tracer, args, g):
    # load_graph builds through graph_from_edges; count each graph once
    if tracer.current() not in GRAPH_BUILDERS:
        tracer.counters["graph_bytes"] += g.offsets.nbytes + g.neighbors.nbytes
        tracer.counters["edges"] += g.num_edges


def _count_sampling(tracer, args, _):
    g, _s, rule = args[:3]
    tracer.counters["sampling_bytes"] += sampling_bytes(
        g.num_vertices, _draws(rule.sampler), g.neighbors.itemsize, g.offsets.itemsize
    )


def _count_trials(tracer, args, _):
    tracer.counters["trials"] += args[0].trials


HOOKS = {
    "sbm_graph.generate_sbm": _count_graph,
    "sbm_graph.load_graph": _count_graph,
    "sbm_graph.graph_from_edges": _count_graph,
    "voting_core.step_sampling": _count_sampling,
    "experiment_harness.run_trials": _count_trials,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counters = {"graph_bytes": 0, "edges": 0, "sampling_bytes": 0, "trials": 0}

    def current(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def _wrap(self, name, fn):
        spans, stack, clock, hook = self.spans, self.stack, time.perf_counter, HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap each module's public functions (cli_io: only its entry point
        main, so main's self time is the CLI layer's own parsing and output)."""
        wrappers = {}
        for short in MODULES:
            mod = sys.modules[f"votedyn.{short}"]
            names = ["main"] if short == "cli_io" else mod.__all__
            for attr in names:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(f"{short}.{attr}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname == "votedyn" or modname.startswith("votedyn."):
                for attr, value in list(vars(mod).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        setattr(mod, attr, wrappers[value])


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - c for (_n, start, end, _p), c in zip(spans, child)]


def outer_time(spans, prefix: str) -> float:
    """Summed duration of spans named prefix* that have no ancestor named
    prefix*, so a module's nested calls are counted once."""
    total = 0.0
    for name, start, end, parent in spans:
        if not name.startswith(prefix):
            continue
        while parent >= 0 and not spans[parent][0].startswith(prefix):
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def layer_metrics(spans, counters: dict, traced_wall: float, output_bytes: int) -> dict:
    """Per-layer metrics of one traced pass (trace.overhead_s is left to the
    caller, which also has the untraced passes)."""
    selfs = self_times(spans)
    dur, calls, own = {}, {}, {}
    for (name, start, end, _p), s in zip(spans, selfs):
        dur[name] = dur.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + s

    out = {}
    for name in LAYER_METRICS:
        fn, _, kind = name.rpartition(".")
        if "." not in fn:
            continue  # module-level metrics, set below
        if kind == "s":
            out[name] = dur.get(fn, 0.0)
        elif kind == "calls":
            out[name] = calls.get(fn, 0)
        elif kind == "self_s":
            out[name] = own.get(fn, 0.0)
        elif kind == "us_per_call":
            out[name] = 1e6 * dur[fn] / calls[fn] if calls.get(fn) else 0.0
    sampling_calls = calls.get("voting_core.step_sampling", 0)
    trials = counters["trials"]
    out.update(
        {
            "sbm_graph.graph_mib": counters["graph_bytes"] / MIB,
            "sbm_graph.edges": counters["edges"],
            "voting_core.step_sampling.bytes_per_call": (
                counters["sampling_bytes"] / sampling_calls if sampling_calls else 0.0
            ),
            "experiment_harness.graphs_per_trial": (
                calls.get("sbm_graph.generate_sbm", 0) / trials if trials else 0.0
            ),
            "fixed_point_analysis.s": outer_time(spans, "fixed_point_analysis."),
            "cli_io.output_bytes": output_bytes,
            "trace.wall_s": traced_wall,
            "trace.self_cover": sum(selfs) / traced_wall if traced_wall > 0 else 0.0,
        }
    )
    return {name: out[name] for name in LAYER_METRICS if name in out}
