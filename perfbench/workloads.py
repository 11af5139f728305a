"""The four benchmark workloads, run inside one child process per pass.

Each workload has a `run` step, whose program calls are timed into
`Pass.wall`, and a `check` step that verifies the outputs afterwards with the
acceptance battery's own thresholds. CLI workloads go through the public
entry point `votedyn.cli_io.main(argv)`; exact_small has no subcommand and
calls the library. Functions are looked up on their modules at call time, so
a traced pass reaches the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
import hashlib
import importlib.util
import io
from itertools import combinations
import json
from pathlib import Path
import re
import time

import numpy as np

from votedyn import cli_io, sbm_graph
from votedyn import voting_core as vc

# Sizes follow the paper-claim shapes; trial and step counts keep one pass a
# few seconds long so a run holds several passes.
SINK_TRIALS = 3
SINK_STEPS = 2000
DEVIATION_TRIALS = 2
GOODNESS_SAMPLES = 5
EXACT_GRAPHS = 6000
PAIRS = list(combinations(range(6), 2))
BATTERY = (0b000000, 0b111111, 0b000111, 0b101010, 0b010101, 0b110001)  # criterion 7's
EXACT_SAMPLERS = ("bo3", "bo2", 5)  # oracle tags of bo3, bo2, best_of_5


@dataclass
class Pass:
    workdir: Path
    seed: int
    wall: float = 0.0
    work: int = 0
    output_bytes: int = 0
    checks: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)  # output name -> sha256
    files: list = field(default_factory=list)
    results: object = None

    def cli(self, argv: list[str], output: str | None = None) -> str:
        """Time one cli_io.main call; returns its captured stdout."""
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli_io.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        self.wall += time.perf_counter() - start
        self.check(f"{argv[0]} exit code == 0", rc == 0, rc)
        text = buf.getvalue()
        self.output_bytes += len(text.encode())
        if text:
            self.outputs[f"{argv[0]}.stdout"] = hashlib.sha256(text.encode()).hexdigest()
        if output is not None:
            self.files.append(output)
        return text

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def check(self, name: str, ok: bool, value) -> None:
        self.checks.append([name, bool(ok), value])

    def load_json(self, path: str):
        try:
            with open(path) as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def hash_files(self) -> None:
        for path in self.files:
            p = Path(path)
            if p.exists():
                self.output_bytes += p.stat().st_size
                self.outputs[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()


def _value(doc, key):
    return None if doc is None else doc.get(key)


def _at_most(p: Pass, doc, key: str, limit: float) -> None:
    value = _value(doc, key)
    p.check(f"{key} <= {limit:g}", value is not None and value <= limit, value)


# ---------------------------------------------------------------- sink

SINK_RUNS = (("bo3", "0.05"), ("bo2", "0.10"))


def sink_run(p: Pass) -> None:
    for model, r in SINK_RUNS:
        out = p.path(f"sink-{model}.json")
        p.cli(
            ["sink-persist", "--model", model, "--n", "1000", "--p", "0.2", "--r", r,
             "--epsilon", "0.1", "--trials", str(SINK_TRIALS), "--max-steps", str(SINK_STEPS),
             "--seed", str(p.seed), "--workers", "1", "-o", out],
            output=out,
        )


def sink_check(p: Pass, root: Path) -> None:
    for model, _r in SINK_RUNS:
        doc = p.load_json(p.path(f"sink-{model}.json"))
        for key in ("escape_fraction", "consensus_fraction"):
            value = _value(doc, key)
            p.check(f"{model} {key} == 0", value == 0, value)
        for rec in (doc or {}).get("records", []):
            stop = rec["escaped_at"] if rec["escaped_at"] is not None else rec["t_cons"]
            p.work += doc["horizon"] if stop is None else stop


# ---------------------------------------------------------------- deviation


def deviation_run(p: Pass) -> None:
    out = p.path("deviation.json")
    p.cli(
        ["deviation", "--model", "bo3", "--n", "4000", "--p", "0.3", "--r", "0.3",
         "--init", "clustered(0.05,0.15)", "--t-max", "10", "--trials", str(DEVIATION_TRIALS),
         "--seed", str(p.seed), "--workers", "1", "-o", out],
        output=out,
    )


def deviation_check(p: Pass, root: Path) -> None:
    doc = p.load_json(p.path("deviation.json"))
    _at_most(p, doc, "max_ratio", 20.0)
    p.work += _value(doc, "trials") or 0


# ---------------------------------------------------------------- goodness


def goodness_run(p: Pass) -> None:
    graph, out = p.path("graph.txt"), p.path("goodness.json")
    stats = p.cli(
        ["generate", "--n", "2000", "--p", "0.3", "--q", "0.09", "--seed", str(p.seed), "-o", graph],
        output=graph,
    )
    p.cli(
        ["goodness", "--graph", graph, "--rule", "bo3", "--samples", str(GOODNESS_SAMPLES),
         "--seed", str(p.seed), "-o", out],
        output=out,
    )
    edges = re.search(r"\bedges=(\d+)", stats)
    p.work += int(edges.group(1)) if edges else 0


def goodness_check(p: Pass, root: Path) -> None:
    doc = p.load_json(p.path("goodness.json"))
    for key in ("p2_max", "p3_max", "variance_max_dev"):
        _at_most(p, doc, key, 10.0)


# ---------------------------------------------------------------- exact_small


def exact_small_run(p: Pass) -> None:
    rng = np.random.default_rng(p.seed)
    masks = np.sort(rng.choice(1 << len(PAIRS), size=EXACT_GRAPHS, replace=False))
    edge_lists = [[pair for b, pair in enumerate(PAIRS) if m >> b & 1] for m in masks.tolist()]
    members = [np.array([(bits >> v) & 1 for v in range(6)], dtype=bool) for bits in BATTERY]
    start = time.perf_counter()
    rules = (vc.make_rule_bo3(), vc.make_rule_bo2(), vc.make_rule_best_of(2))
    got = []
    for edges in edge_lists:
        g = sbm_graph.graph_from_edges(3, edges)
        for member in members:
            s = vc.state_from_member(member)
            for rule in rules:
                got.append(vc.step_probabilities(g, s, rule))
    p.wall += time.perf_counter() - start
    got = np.array(got)
    p.work += got.size
    p.results = (masks, got)
    p.outputs["probabilities"] = hashlib.sha256(got.tobytes()).hexdigest()


def _oracles(root: Path):
    spec = importlib.util.spec_from_file_location("oracles", root / "tests" / "oracles.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def exact_small_check(p: Pass, root: Path) -> None:
    """Largest gap between each step probability and the enumeration oracle,
    looked up per (rule, degree, opinion-1 neighbours, own opinion)."""
    oracles = _oracles(root)
    table = np.zeros((len(EXACT_SAMPLERS), 6, 6, 2))
    for k, sampler in enumerate(EXACT_SAMPLERS):
        for deg in range(6):
            for deg_a in range(deg + 1):
                for member in (0, 1):
                    table[k, deg, deg_a, member] = float(
                        oracles.sampling_adoption_prob(deg, deg_a, bool(member), sampler)
                    )
    masks, got = p.results
    adj = np.zeros((masks.size, 6, 6), dtype=np.int64)
    for b, (u, v) in enumerate(PAIRS):
        adj[:, u, v] = adj[:, v, u] = (masks >> b) & 1
    mem = np.array([[(bits >> v) & 1 for v in range(6)] for bits in BATTERY])
    deg = adj.sum(axis=2)  # (graph, vertex)
    deg_a = np.einsum("gvw,sw->gsv", adj, mem)  # (graph, state, vertex)
    rule = np.arange(len(EXACT_SAMPLERS))[None, None, :, None]
    want = table[rule, deg[:, None, None, :], deg_a[:, :, None, :], mem[None, :, None, :]]
    gap = float(np.max(np.abs(got.reshape(want.shape) - want)))
    p.check("max gap to oracle <= 1e-12", gap <= 1e-12, gap)


WORKLOADS = {
    "sink": (sink_run, sink_check),
    "deviation": (deviation_run, deviation_check),
    "goodness": (goodness_run, goodness_check),
    "exact_small": (exact_small_run, exact_small_check),
}
