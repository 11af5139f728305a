"""Crossing-star statistics and goodness-property probes."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import votedyn as vd
from votedyn import (
    generate_sbm,
    goodness_report,
    graph_from_edges,
    make_initial,
    make_rule_bo2,
    make_rule_bo3,
    p2_scan,
    p3_scan,
    parse_init_family,
    state_from_member,
    variance_profile,
    w_concentration_scan,
    w_hat,
    w_stat,
)
from votedyn.sbm_graph import Graph

from . import oracles


def _edges_of(neighbors) -> list[tuple[int, int]]:
    return [(a, b) for a, nb in enumerate(neighbors) for b in nb if a < b]


# set batteries as vertex-id lists; covers l=1 and l=2
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


# --- w_stat against the naive oracle ---


def test_w_stat_matches_naive_all_4_vertex_graphs():
    for neighbors in oracles.enumerate_symmetric_graphs(4):
        g = graph_from_edges(2, _edges_of(neighbors))
        for s0, sets in BATTERIES_4:
            want = oracles.naive_w_stat(neighbors, s0, sets)
            assert w_stat(g, s0, sets) == float(want)


def test_w_stat_matches_naive_all_5_vertex_graphs():
    # 5-vertex graphs ride in a 6-vertex container; the extra vertex stays
    # isolated and out of every set, so it contributes nothing to any W.
    for neighbors in oracles.enumerate_symmetric_graphs(5):
        g = graph_from_edges(3, _edges_of(neighbors))
        for s0, sets in BATTERIES_5:
            want = oracles.naive_w_stat(neighbors, s0, sets)
            assert w_stat(g, s0, sets) == float(want)


def test_w_stat_set_forms_agree():
    g = generate_sbm(50, 0.4, 0.1, seed=2)
    ids = [0, 3, 7, 49, 50, 99]
    mask = np.zeros(100, dtype=bool)
    mask[ids] = True
    state = state_from_member(mask)
    v1 = list(range(50))
    a = w_stat(g, ids, [v1])
    b = w_stat(g, mask, [v1])
    c = w_stat(g, state.member, [v1])
    assert a == b == c


def test_w_stat_validation():
    g = generate_sbm(10, 0.5, 0.1, seed=1)
    with pytest.raises(ValueError):
        w_stat(g, [0, 1], [])
    with pytest.raises(ValueError):
        w_stat(g, np.zeros(7, dtype=bool), [list(range(5))])


# --- w_hat ---


def test_w_hat_frozen_values():
    v1 = list(range(100))
    v = list(range(200))
    assert math.isclose(w_hat(100, 0.3, 0.1, v1, [v1]), 2970.0, rel_tol=1e-12)
    assert math.isclose(w_hat(100, 0.3, 0.1, v1, [v]), 3970.0, rel_tol=1e-12)


@given(
    st.integers(1, 5),
    st.integers(0, 10),
    st.integers(0, 10),
    st.integers(0, 2**10 - 1),
    st.integers(0, 2**10 - 1),
    st.integers(0, 2**10 - 1),
)
@settings(max_examples=150, deadline=None)
def test_w_hat_matches_naive(n, pi, qi, bits0, bits1, bits2):
    p, q = pi / 10.0, qi / 10.0
    nv = 2 * n
    s0 = [v for v in range(nv) if bits0 >> v & 1]
    s1 = [v for v in range(nv) if bits1 >> v & 1]
    s2 = [v for v in range(nv) if bits2 >> v & 1]
    for sets in ([s1], [s1, s2]):
        want = oracles.naive_w_hat(n, p, q, s0, sets)
        assert w_hat(n, p, q, s0, sets) == pytest.approx(want, abs=1e-9)


def test_w_hat_empty_s0_is_zero():
    assert w_hat(5, 0.5, 0.2, [], [list(range(10))]) == 0.0


# --- scans ---


def test_w_concentration_scan_report():
    g = generate_sbm(300, 0.3, 0.09, seed=4)
    for l in (1, 2, 3):
        dev = w_concentration_scan(g, l, 5, np.random.default_rng(3))
        assert isinstance(dev, float)
        assert np.isfinite(dev) and dev >= 0.0
    a = w_concentration_scan(g, 2, 5, np.random.default_rng(3))
    b = w_concentration_scan(g, 2, 5, np.random.default_rng(3))
    assert a == b


def test_p_scans_and_variance_profile():
    g = generate_sbm(200, 0.3, 0.09, seed=5)
    rule = make_rule_bo3()
    v2 = p2_scan(g, rule, 5, np.random.default_rng(1))
    v3 = p3_scan(g, rule, 5, np.random.default_rng(1))
    assert 0.0 <= v2 < 10.0 and 0.0 <= v3 < 10.0
    v3s = p3_scan(g, rule, 5, np.random.default_rng(1), sizes=[50, 100])
    assert 0.0 <= v3s < 10.0
    with pytest.raises(ValueError):
        p3_scan(g, rule, 5, np.random.default_rng(1), sizes=[0])
    with pytest.raises(ValueError):
        p3_scan(g, rule, 5, np.random.default_rng(1), sizes=[2 * g.n + 1])
    states = [
        make_initial(g, parse_init_family("random_density(0.5)"), np.random.default_rng(k))
        for k in range(3)
    ]
    vv = variance_profile(g, rule, states)
    assert 0.0 <= vv < 10.0


def test_goodness_report_shape():
    g = generate_sbm(200, 0.3, 0.09, seed=5)
    rep = goodness_report(g, make_rule_bo2(), samples=10, rng=np.random.default_rng(9))
    assert rep["rule"] == "bo2" and rep["n"] == 200
    assert rep["p"] == 0.3 and rep["q"] == 0.09 and rep["samples"] == 10
    for key in ("p2_max", "p3_max", "variance_max_dev"):
        assert 0.0 <= rep[key] < 10.0
    assert set(rep["w_max_normalized_dev"]) == {"1", "2", "3"}
    assert all(v >= 0.0 for v in rep["w_max_normalized_dev"].values())


def test_goodness_report_custom_orders():
    g = generate_sbm(150, 0.4, 0.1, seed=6)
    rep = goodness_report(
        g, make_rule_bo3(), samples=5, rng=np.random.default_rng(2), w_orders=(1, 2)
    )
    assert set(rep["w_max_normalized_dev"]) == {"1", "2"}


# --- neighbour counts the probes make ---


@pytest.fixture
def count_in_calls(monkeypatch):
    calls = []
    original = Graph.count_in

    def counting(self, mask):
        calls.append(mask)
        return original(self, mask)

    monkeypatch.setattr(Graph, "count_in", counting)
    return calls


def test_variance_profile_counts_once_per_state(count_in_calls):
    g = generate_sbm(40, 0.4, 0.1, seed=3)
    rng = np.random.default_rng(0)
    states = [state_from_member(rng.random(80) < 0.5) for _ in range(3)]
    variance_profile(g, make_rule_bo3(), states)
    assert len(count_in_calls) == 3


def test_w_stat_counts_a_repeated_set_once(count_in_calls):
    g = generate_sbm(40, 0.4, 0.1, seed=3)
    m = np.random.default_rng(1).random(80) < 0.5
    got = w_stat(g, m, [m, m, m])
    assert len(count_in_calls) == 1
    deg = g.count_in(m).astype(np.int64)
    assert got == float((deg**3)[m].sum())
    # equal masks that are distinct objects are each counted
    count_in_calls.clear()
    assert w_stat(g, m, [m, m.copy()]) == float((deg**2)[m].sum())
    assert len(count_in_calls) == 2


def test_goodness_report_count_budget(count_in_calls):
    # p2 and p3: one count per sample; variance: one per state (20); the W
    # scans at l = 1, 2, 3: at most l per sample, one for each of the two
    # structured samples
    g = generate_sbm(60, 0.3, 0.09, seed=5)
    goodness_report(g, make_rule_bo3(), samples=5, rng=np.random.default_rng(9))
    assert len(count_in_calls) <= 5 + 5 + 20 + (5 + 8 + 11)


@pytest.mark.parametrize(
    "graph, kwargs, match",
    [
        ((1, 0.5, 0.1), {}, "n >= 2 and p > 0"),
        ((1, 0.5, 0.1), {"p3_sizes": [1]}, "n >= 2 and p > 0"),
        ((10, 0.0, 0.0), {}, "n >= 2 and p > 0"),
        ((20, 0.4, 0.1), {"w_orders": (1, 4)}, "l must be 1, 2, or 3"),
        ((20, 0.4, 0.1), {"p3_sizes": [41]}, "sizes must lie in"),
        ((20, 0.4, 0.1), {"samples": 0}, "samples must be >= 1"),
        # N(Np)^(l-1/2) underflows to 0 at l = 2: a ZeroDivisionError after
        # three probes had run
        ((3, 1e-300, 0.0), {}, "N\\(Np\\)\\^\\(2-1/2\\) = 0.0 is not a positive finite"),
        ((3, 1e-300, 0.0), {"w_orders": (1,)}, None),
        # sqrt(n/p) is inf, so the p2 and variance probes reported 0.0
        ((3, 5e-324, 0.0), {"w_orders": (1,)}, "sqrt\\(n/p\\) = inf is not a positive finite"),
    ],
)
def test_goodness_report_rejects_before_drawing(count_in_calls, graph, kwargs, match):
    g = generate_sbm(*graph, seed=1)
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    kwargs = {"samples": 5, **kwargs}
    if match is None:
        # every normaliser in use is positive and finite
        goodness_report(g, make_rule_bo3(), rng=rng, **kwargs)
        return
    with pytest.raises(ValueError, match=match):
        goodness_report(g, make_rule_bo3(), rng=rng, **kwargs)
    assert rng.bit_generator.state == before
    assert count_in_calls == []


_HALF = state_from_member(np.arange(6) < 3)


@pytest.mark.parametrize(
    "p, probe, match",
    [
        (1e-300, lambda g, rng: w_concentration_scan(g, 2, 5, rng), "N\\(Np\\)"),
        (1e-300, lambda g, rng: w_concentration_scan(g, 3, 5, rng), "N\\(Np\\)"),
        (5e-324, lambda g, rng: p2_scan(g, make_rule_bo3(), 5, rng), "sqrt\\(n/p\\)"),
        (5e-324, lambda g, rng: p3_scan(g, make_rule_bo3(), 5, rng), "ln n"),
        (5e-324, lambda g, rng: variance_profile(g, make_rule_bo3(), [_HALF]), "sqrt\\(n/p\\)"),
    ],
)
def test_each_scan_checks_its_normaliser_before_drawing(count_in_calls, p, probe, match):
    g = generate_sbm(3, p, 0.0, seed=1)
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"{match}.* is not a positive finite number"):
        probe(g, rng)
    assert rng.bit_generator.state == before
    assert count_in_calls == []
