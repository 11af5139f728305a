"""End-to-end acceptance checks, one per shipped claim.

Every test prints a single `criterion N: PASS/FAIL` line on the real stderr
stream so the verdicts survive pytest's capture. Monte Carlo thresholds and
trial counts are frozen constants picked from pilot runs; nothing is tuned at
test time. Runtime budgets are asserted alongside the numerical targets.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import votedyn as vd
from votedyn import (
    ExperimentConfig,
    InducedMap,
    competitive_checks,
    eigen_table,
    fixed_point_locations,
    generate_sbm,
    goodness_report,
    graph_from_edges,
    jacobian_analytic,
    make_rule_best_of,
    make_rule_bo2,
    make_rule_bo3,
    r_of_u,
    run_trials,
    sink_persistence,
    state_from_member,
    step_probabilities,
    threshold_r,
    trajectory_deviation,
    w_stat,
    worst_case_scan,
)

from . import oracles

MASTER_SEED = 0xC0FFEE
PHI_HAT = (math.sqrt(5.0) - 1.0) / 2.0


_CAPTURE = None


@pytest.fixture(autouse=True)
def _capture_handle(capfd):
    # pytest's fd-level capture swallows even sys.__stderr__; stash the
    # fixture so announce() can temporarily lift it
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def announce(num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {num}: {verdict} - {detail}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, file=sys.stderr, flush=True)
    else:
        print(line, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_threshold_reproduction():
    t0 = time.perf_counter()
    bo3 = threshold_r("bo3")
    bo2 = threshold_r("bo2")
    err3 = abs(bo3.r_star - 1.0 / 7.0)
    err2 = abs(bo2.r_star - (math.sqrt(5.0) - 2.0))
    elapsed = time.perf_counter() - t0
    ok = err3 <= 1e-9 and err2 <= 1e-9 and elapsed < 1.0
    announce(1, ok, f"bo3 |err|={err3:.2e} bo2 |err|={err2:.2e} ({elapsed:.2f}s)")
    assert ok


# ---------------------------------------------------------------- criterion 2

TABLE_BO3 = {
    0.5: {"d1*": ("+", "-"), "d4*": ("-", "-")},
    2.0 / 3.0: {"d1*": ("+", "1"), "d2*": ("+", "1"), "d4*": ("-", "-")},
    0.7: {"d1*": ("+", "+"), "d2*": ("+", "-"), "d4*": ("-", "-")},
    0.75: {"d1*": ("+", "+"), "d2*": ("1", "-"), "d3*": ("1", "-"), "d4*": ("-", "-")},
    0.9: {"d1*": ("+", "+"), "d2*": ("-", "-"), "d3*": ("+", "-"), "d4*": ("-", "-")},
}

TABLE_BO2 = {
    0.4: {"d1*": ("+", "-"), "d4*": ("-", "-")},
    0.5: {"d1*": ("+", "1"), "d2*": ("+", "1"), "d4*": ("-", "-")},
    0.55: {"d1*": ("+", "+"), "d2*": ("+", "-"), "d4*": ("-", "-")},
    PHI_HAT: {"d1*": ("+", "+"), "d2*": ("1", "-"), "d3*": ("1", "-"), "d4*": ("-", "-")},
    0.8: {"d1*": ("+", "+"), "d2*": ("-", "-"), "d3*": ("+", "-"), "d4*": ("-", "-")},
}


def test_criterion_2_table_reproduction():
    t0 = time.perf_counter()
    got3 = eigen_table("bo3", list(TABLE_BO3))
    got2 = eigen_table("bo2", list(TABLE_BO2))
    mismatches = sum(got3[u] != TABLE_BO3[u] for u in TABLE_BO3) + sum(
        got2[u] != TABLE_BO2[u] for u in TABLE_BO2
    )
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 1.0
    announce(2, ok, f"rows checked=10 mismatches={mismatches} ({elapsed:.2f}s)")
    assert ok


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_fixed_point_jacobian_consistency():
    t0 = time.perf_counter()
    worst_residual = 0.0
    for model, t_map in (("bo3", oracles.eval_T_bo3), ("bo2", oracles.eval_T_bo2)):
        for u in np.arange(0.01, 1.0, 0.01):
            for loc in fixed_point_locations(model, float(u)).values():
                image = t_map(float(u), loc)
                worst_residual = max(
                    worst_residual,
                    abs(image[0] - loc[0]),
                    abs(image[1] - loc[1]),
                )
    worst_jac = 0.0
    rng = np.random.default_rng(MASTER_SEED)
    for model, rule in (("bo3", make_rule_bo3()), ("bo2", make_rule_bo2())):
        for _ in range(200):
            u = float(rng.uniform(0.05, 0.95))
            d2 = float(rng.uniform(0.0, 1.0))
            d1 = float(rng.uniform(0.0, 1.0 - d2))
            m = InducedMap(rule, r_of_u(u))
            ja = jacobian_analytic(model, m.u, (d1, d2))
            jn = oracles.fd_jacobian(lambda x, y: m.delta((x, y)), d1, d2)
            worst_jac = max(
                worst_jac,
                abs(ja.j11 - jn[0]),
                abs(ja.j12 - jn[1]),
                abs(ja.j21 - jn[2]),
                abs(ja.j22 - jn[3]),
            )
    elapsed = time.perf_counter() - t0
    ok = worst_residual <= 1e-12 and worst_jac <= 1e-6 and elapsed < 5.0
    announce(
        3,
        ok,
        f"max residual={worst_residual:.2e} max jacobian gap={worst_jac:.2e} "
        f"({elapsed:.2f}s)",
    )
    assert ok


# ---------------------------------------------------------------- criterion 4


def _consensus_fraction(cfg: ExperimentConfig, exp_id: str) -> float:
    records = run_trials(cfg, exp_id)
    return sum(not rec.timeout for rec in records) / len(records)


def test_criterion_4_phase_transition_contrast():
    t0 = time.perf_counter()
    failures = []
    details = []
    for model, r_fast, r_slow in (("bo3", 0.25, 0.05), ("bo2", 0.30, 0.10)):
        fast_cfg = ExperimentConfig(
            model=model,
            n=1000,
            p=0.2,
            r=r_fast,
            init="biased_global(0.2)",
            trials=50,
            max_steps=50,
            master_seed=MASTER_SEED,
        )
        frac = _consensus_fraction(fast_cfg, "acceptance:phase-fast")
        details.append(f"{model} r={r_fast} consensus={frac:.2f}")
        if frac < 0.95:
            failures.append(f"{model} fast branch {frac}")
        slow_cfg = replace(fast_cfg, r=r_slow, init=None, trials=50, max_steps=10_000)
        rep = sink_persistence(slow_cfg, epsilon=0.1)
        details.append(
            f"{model} r={r_slow} escapes={rep['escape_fraction']:.2f} "
            f"consensus={rep['consensus_fraction']:.2f}"
        )
        if rep["escape_fraction"] != 0.0 or rep["consensus_fraction"] != 0.0:
            failures.append(f"{model} slow branch")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 600.0
    announce(4, ok, "; ".join(details) + f" ({elapsed:.0f}s)")
    assert ok, failures


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_worst_case_log_budget():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        model="bo3",
        n=1000,
        p=0.3,
        r=0.25,
        init=None,
        trials=10,
        max_steps=400,
        master_seed=MASTER_SEED,
    )
    rep = worst_case_scan(cfg)
    budget = 25.0 * math.log(cfg.n)
    elapsed = time.perf_counter() - t0
    ok = (
        rep["family_count"] >= 12
        and rep["total_trials"] == rep["family_count"] * 10
        and rep["all_consensus"]
        and rep["max_t_cons"] <= budget
        and elapsed < 300.0
    )
    announce(
        5,
        ok,
        f"families={rep['family_count']} all consensus={rep['all_consensus']} "
        f"max T_cons={rep['max_t_cons']} budget={budget:.1f} ({elapsed:.0f}s)",
    )
    assert ok


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_trajectory_orbit_deviation():
    t0 = time.perf_counter()
    base = ExperimentConfig(
        model="bo3",
        n=1000,
        p=0.3,
        r=0.3,
        init="clustered(0.05,0.15)",
        trials=50,
        max_steps=10,
        master_seed=MASTER_SEED,
    )
    small = trajectory_deviation(base, t_max=10)
    large = trajectory_deviation(replace(base, n=4000), t_max=10)
    ratio = large["median_trial_max"] / small["median_trial_max"]
    worst_ratio = max(small["max_ratio"], large["max_ratio"])
    elapsed = time.perf_counter() - t0
    ok = ratio <= 0.6 and worst_ratio <= 20.0 and elapsed < 180.0
    announce(
        6,
        ok,
        f"median(4000)/median(1000)={ratio:.3f} (need <=0.6), "
        f"max deviation/bound={worst_ratio:.3f} (need <=20) ({elapsed:.0f}s)",
    )
    assert ok


# ---------------------------------------------------------------- criterion 7


def _adoption_table(rule_tags, max_deg: int) -> np.ndarray:
    """Exact adoption probability indexed [rule, deg, deg_a, member], by full
    enumeration of the sample tuples."""
    table = np.zeros((len(rule_tags), max_deg + 1, max_deg + 1, 2))
    for k, sampler in enumerate(rule_tags):
        for deg in range(max_deg + 1):
            for deg_a in range(deg + 1):
                for member in (False, True):
                    table[k, deg, deg_a, int(member)] = float(
                        oracles.sampling_adoption_prob(deg, deg_a, member, sampler)
                    )
    return table


def _state_battery(nv: int, states) -> tuple:
    """Opinion states as 0/1 rows (bit v of each state is vertex v), plus
    their OpinionStates."""
    members = np.array([[(bits >> v) & 1 for v in range(nv)] for bits in states], dtype=np.int64)
    return members, [state_from_member(m.astype(bool)) for m in members]


def _check_graph_states(g, neighbors, rules, table, battery) -> float:
    """Largest gap between step_probabilities and the oracle table over every
    (state, rule, vertex); degrees come from the oracle's neighbour sets."""
    members, states = battery
    nv = len(neighbors)
    adj = np.zeros((nv, nv), dtype=np.int64)
    for v, nb in enumerate(neighbors):
        adj[v, list(nb)] = 1
    deg = adj.sum(axis=1)
    deg_a = members @ adj  # (state, vertex); adj is symmetric
    rule_idx = np.arange(len(rules))[None, :, None]
    want = table[rule_idx, deg, deg_a[:, None, :], members[:, None, :]]  # (state, rule, vertex)
    got = np.array([[step_probabilities(g, s, rule) for rule in rules] for s in states])
    return float(np.max(np.abs(got - want)))


BUDGET_7 = 30.0


def test_criterion_7_oracle_equivalences():
    t0 = time.perf_counter()
    samplers = ("bo3", "bo2", 5)  # oracle tags of the rules below
    table = _adoption_table(samplers, 5)
    rules = [make_rule_bo3(), make_rule_bo2(), make_rule_best_of(2)]
    worst = 0.0

    # every graph on 2 and 4 vertices, every opinion state, every rule
    for nv in (2, 4):
        all_states = _state_battery(nv, range(1 << nv))
        for neighbors in oracles.enumerate_symmetric_graphs(nv):
            g = graph_from_edges(nv // 2, _edges_of(neighbors))
            worst = max(worst, _check_graph_states(g, neighbors, rules, table, all_states))

    # every graph on 6 vertices with a fixed state battery for every rule;
    # every 64th graph additionally runs all 64 states under bo3
    battery = _state_battery(6, (0b000000, 0b111111, 0b000111, 0b101010, 0b010101, 0b110001))
    all_64 = _state_battery(6, range(64))
    for idx, neighbors in enumerate(oracles.enumerate_symmetric_graphs(6)):
        g = graph_from_edges(3, _edges_of(neighbors))
        worst = max(worst, _check_graph_states(g, neighbors, rules, table, battery))
        if idx % 64 == 0:
            worst = max(worst, _check_graph_states(g, neighbors, rules[:1], table, all_64))

    # W-statistics against the naive oracle: all graphs on <= 5 vertices, l <= 2
    w_bad = 0
    for neighbors in oracles.enumerate_symmetric_graphs(4):
        g = graph_from_edges(2, _edges_of(neighbors))
        for s0, sets in BATTERIES_4:
            if w_stat(g, s0, sets) != float(oracles.naive_w_stat(neighbors, s0, sets)):
                w_bad += 1
    for neighbors in oracles.enumerate_symmetric_graphs(5):
        g = graph_from_edges(3, _edges_of(neighbors))
        for s0, sets in BATTERIES_5:
            if w_stat(g, s0, sets) != float(oracles.naive_w_stat(neighbors, s0, sets)):
                w_bad += 1

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and w_bad == 0 and elapsed < BUDGET_7
    announce(
        7,
        ok,
        f"max step-probability gap={worst:.2e} w_stat mismatches={w_bad} "
        f"({elapsed:.0f}s of {BUDGET_7:.0f}s)",
    )
    assert worst <= 1e-12, f"step-probability gap {worst:.2e} exceeds 1e-12"
    assert w_bad == 0, f"{w_bad} W-statistics differ from the naive oracle"
    assert elapsed < BUDGET_7, f"took {elapsed:.1f}s, budget {BUDGET_7:.0f}s"


def _edges_of(neighbors) -> list[tuple[int, int]]:
    return [(a, b) for a, nb in enumerate(neighbors) for b in nb if a < b]


BATTERIES_4 = [
    ([0, 1], [[2, 3]]),
    ([0, 1], [[0, 2], [1, 3]]),
    ([0, 1, 2, 3], [[0, 1, 2, 3]]),
    ([0, 1, 2, 3], [[0, 1], [2, 3]]),
    ([0, 3], [[1, 2, 3]]),
    ([0, 3], [[0, 1, 2, 3], [0]]),
    ([2], [[0, 1], [0, 1, 2]]),
]

BATTERIES_5 = [
    ([0, 1, 2], [[3, 4]]),
    ([0, 1, 2, 3, 4], [[0, 1, 2, 3, 4]]),
    ([0, 1, 2, 3, 4], [[0, 2, 4], [1, 3]]),
    ([1, 4], [[0, 1, 2], [2, 3, 4]]),
    ([3], [[0, 4], [0, 1, 2, 3, 4]]),
]


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_competitive_map_structure():
    t0 = time.perf_counter()
    failures = []
    min_det = math.inf
    for model in ("bo3", "bo2"):
        for u in np.arange(0.1, 0.901, 0.1):
            rep = competitive_checks(model, float(u), 0.01)
            min_det = min(min_det, rep["min_det"])
            if not rep["passed"] or rep["sign_violations"] or rep["min_det"] <= 0.0:
                failures.append(f"{model} u={u:.1f}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    announce(8, ok, f"grids=18 min det={min_det:.4f} ({elapsed:.2f}s)")
    assert ok, failures


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_concentration_probes():
    t0 = time.perf_counter()
    rule = make_rule_bo3()
    constants = {}
    at_1000 = {}
    for n in (500, 1000, 2000):
        g = generate_sbm(n, 0.3, 0.09, seed=vd.derive_seed(MASTER_SEED, "concentration", n))
        rep = goodness_report(
            g,
            rule,
            samples=100,
            rng=np.random.default_rng(vd.derive_seed(MASTER_SEED, "goodness", n)),
        )
        constants[n] = max(rep["p2_max"], rep["p3_max"], rep["variance_max_dev"])
        if n == 1000:
            at_1000 = {
                "p2": rep["p2_max"],
                "p3": rep["p3_max"],
                "var": rep["variance_max_dev"],
            }
    bounded = all(v <= 10.0 for v in at_1000.values())
    trend_ok = (
        constants[1000] <= 2.0 * constants[500]
        and constants[2000] <= 2.0 * constants[1000]
    )
    elapsed = time.perf_counter() - t0
    ok = bounded and trend_ok and elapsed < 300.0
    announce(
        9,
        ok,
        f"n=1000 constants p2={at_1000['p2']:.3f} p3={at_1000['p3']:.3f} "
        f"var={at_1000['var']:.3f} (need <=10); trend "
        f"{constants[500]:.3f}->{constants[1000]:.3f}->{constants[2000]:.3f} "
        f"within 2x ({elapsed:.0f}s)",
    )
    assert ok
