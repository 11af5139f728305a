"""Voting rules, synchronous steps, trajectories, and initial conditions."""

from __future__ import annotations

import dataclasses
import functools
import gc
import io
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from hypothesis import given, settings
from hypothesis import strategies as st

import votedyn as vd
from votedyn import (
    OpinionState,
    generate_sbm,
    graph_from_edges,
    make_initial,
    make_rule_best_of,
    make_rule_bo2,
    make_rule_bo3,
    parse_init_family,
    run_until_consensus,
    state_from_member,
    step_probabilities,
    step_sampling,
    to_alpha,
    to_delta,
    write_trajectory_csv,
)

from . import oracles


# --- rules ---


def test_bo3_polynomial_matches_enumeration():
    rule = make_rule_bo3()
    xs = np.linspace(0.0, 1.0, 41)
    for x in xs:
        assert rule.f1(x) == pytest.approx(oracles.bo3_f(x), abs=1e-15)
        assert rule.f2(x) == pytest.approx(oracles.bo3_f(x), abs=1e-15)
    assert np.array_equal(rule.f1(xs), rule.f2(xs))


def test_bo2_polynomials_match_behavioral_enumeration():
    rule = make_rule_bo2()
    xs = np.linspace(0.0, 1.0, 41)
    for x in xs:
        assert rule.f1(x) == pytest.approx(oracles.bo2_f1(x), abs=1e-15)
        assert rule.f2(x) == pytest.approx(oracles.bo2_f2(x), abs=1e-15)
    assert not np.array_equal(rule.f1(xs), rule.f2(xs))
    # absorption at both ends
    assert rule.f1(1.0) == 1.0 and rule.f1(0.0) == 0.0
    assert rule.f2(1.0) == 1.0 and rule.f2(0.0) == 0.0


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 12])
def test_best_of_coefficients_are_exact_binomial_tails(k):
    rule = make_rule_best_of(k)
    expect = [float(c) for c in oracles.best_of_coeffs(k)]
    assert rule._horner == (tuple(reversed(expect)),)
    # value tolerance follows the Horner forward-error bound of the expansion
    tol = max(1e-12, 2 * len(expect) * np.finfo(np.float64).eps * sum(abs(c) for c in expect))
    for x in (0.0, 0.1, 0.3, 0.5, 0.77, 1.0):
        assert rule.f1(x) == pytest.approx(
            float(oracles.best_of_tail(k, Fraction(x).limit_denominator(10**12))),
            abs=tol,
        )


def test_best_of_frozen_values():
    bo5 = make_rule_best_of(2)
    assert bo5._horner == ((6.0, -15.0, 10.0, 0.0, 0.0, 0.0),)
    assert bo5.f1(0.3) == pytest.approx(0.16308, abs=1e-12)
    assert make_rule_best_of(1).name == "best_of_3"
    with pytest.raises(ValueError):
        make_rule_best_of(0)
    with pytest.raises(ValueError):
        make_rule_best_of(13)  # sample count capped at 25


def test_rule_range_validation():
    # a rule's only input is its name: its law follows from its sampling
    # procedure, so no coefficients can be passed to disagree with it
    with pytest.raises(TypeError):
        vd.VotingRule("bo3", [0, 1], [0, 1])
    # every rule samples: a name without a sampling step cannot be built
    with pytest.raises(ValueError, match="unknown rule name"):
        vd.VotingRule("id")


_RULE_NAMES = ["bo2", "bo3"] + [f"best_of_{m}" for m in range(3, 26, 2)]


def _sampled_law(name, x):
    # (retention, adoption) of a vertex drawing m neighbors with replacement,
    # each holding opinion 1 with probability x, summed exactly over the
    # number i of samples holding opinion 1: bo2 keeps its own opinion unless
    # both samples oppose it, every other rule takes the strict majority
    m = 2 if name == "bo2" else int(name.removeprefix("bo").removeprefix("best_of_"))
    terms = [math.comb(m, i) * x**i * (1 - x) ** (m - i) for i in range(m + 1)]
    if m == 2:
        return terms[1] + terms[2], terms[2]
    tail = sum(terms[m // 2 + 1 :])
    return tail, tail


@pytest.mark.parametrize("name", _RULE_NAMES)
def test_every_rule_law_matches_its_sampling_procedure(name):
    rule = vd.VotingRule(name)
    for d in range(1, 7):
        for k in range(d + 1):
            retain, adopt = _sampled_law(name, Fraction(k, d))
            assert abs(rule.f1(k / d) - retain) < 1e-8, (name, k, d)
            assert abs(rule.f2(k / d) - adopt) < 1e-8, (name, k, d)


# --- states and coordinates ---


def test_state_constructors_count_communities():
    member = np.array([True, False, True, True, False, False])
    s = state_from_member(member)
    assert (s.count1, s.count2) == (2, 1)
    assert s.n == 3


def test_a_state_owns_a_read_only_copy_of_its_member():
    # the state used to alias a bool input: filling the caller's array left
    # a state whose mask held every vertex and whose counts held none
    g = graph_from_edges(3, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    member = np.zeros(6, dtype=bool)
    s = state_from_member(member)
    member[:] = True
    assert not s.member.any() and (s.count1, s.count2) == (0, 0)
    assert step_probabilities(g, s, make_rule_bo3()).tolist() == [0.0] * 6
    with pytest.raises(ValueError):
        s.member[0] = True  # read-only
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.member = member
    # a mask of odd length or of more than one axis has no two communities,
    # and a mask of numbers is not read as one of bools
    bad_masks = (np.ones(5, dtype=bool), np.ones((2, 3), dtype=bool), True, np.array([0.2, 0, 0, 0]), [1, 0, 0, 0])
    for bad in bad_masks:
        with pytest.raises(ValueError, match="1-d bool mask of even length"):
            state_from_member(bad)
    # a list is copied in too, and a stepped state is read-only as well
    s = state_from_member([True, False, True, False, False, False])
    stepped = step_sampling(g, s, make_rule_bo3(), np.random.default_rng(0))
    assert not s.member.flags.writeable and not stepped.member.flags.writeable
    # built directly, a state takes no mask the caller could still write,
    # itself or through its base, and no counts beside it
    view = member[:]
    view.setflags(write=False)
    for bad in (member, view, np.zeros(6, dtype=np.uint8), [False] * 6):
        with pytest.raises(ValueError, match="read-only 1-d bool mask"):
            vd.OpinionState(bad)
    owned = np.zeros(6, dtype=bool)
    owned.setflags(write=False)
    assert vd.OpinionState(owned).member is owned
    with pytest.raises(TypeError):
        vd.OpinionState(owned, 0, 0)


def test_a_state_reads_its_counts_from_its_mask():
    # a state took its counts beside its mask, and OpinionState(all_ones, 0,
    # 0) made run_until_consensus report consensus on opinion 2 at t = 0
    g = graph_from_edges(3, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    ones = np.ones(6, dtype=bool)
    ones.setflags(write=False)
    s = vd.OpinionState(ones)
    assert (s.count1, s.count2) == (3, 3)
    traj = run_until_consensus(g, s, make_rule_bo3(), 10, np.random.default_rng(0))
    assert (traj.status, traj.final_opinion, traj.t_cons) == (vd.STATUS_CONSENSUS, 1, 0)


def test_a_step_budget_must_be_an_integer():
    # a budget of 10.5 never met t == max_steps, so a run that reached no
    # consensus never ended; from a consensus state it returned at once
    g = graph_from_edges(2, [(0, 1), (1, 2), (2, 3)])
    s = state_from_member(np.ones(4, dtype=bool))
    for bad in (10.5, 2.0, True, np.float64(3)):
        with pytest.raises(ValueError, match="max_steps must be an integer"):
            run_until_consensus(g, s, make_rule_bo3(), bad, np.random.default_rng(0))
    assert run_until_consensus(g, s, make_rule_bo3(), np.int64(3), np.random.default_rng(0)).t_cons == 0


def test_states_compare_by_identity():
    # the generated __eq__ compared the masks, which raised ValueError, and
    # the generated __hash__ hashed them, which raised TypeError
    a = state_from_member([True, False, False, True])
    b = state_from_member([True, False, False, True])
    assert a == a and a != b and not a == b
    assert len({a, b, a}) == 2 and a in {a}


def test_step_probabilities_counts_a_state_once_per_graph(count_calls):
    # one count serves every rule on the graph the state was last counted
    # on; another graph of the same size, or a return to the first, counts
    # again. It is one call of the count kernel on either path: the table
    # keys, or the neighbour count of the Horner path (degrees above
    # PROB_TABLE_DEG)
    rules = (make_rule_bo3(), make_rule_bo2(), make_rule_best_of(2))
    member = np.array([True, True, False, False, True, False])
    ring = graph_from_edges(3, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    star = graph_from_edges(3, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)])
    dense = generate_sbm(40, 0.95, 0.9, seed=1)
    assert dense.degrees.min() > vd.voting_core.PROB_TABLE_DEG
    s = state_from_member(member)
    got = {}
    for g in (ring, star, ring):
        got[g] = [step_probabilities(g, s, rule) for rule in rules]
    assert len(count_calls) == 3
    on_dense = state_from_member(np.arange(80) % 3 == 0)
    got[dense] = [step_probabilities(dense, on_dense, rule) for rule in rules]
    assert len(count_calls) == 4
    # the small graphs counted table keys, the dense one a neighbour count
    assert ring._key_ids and star._key_ids and dense._key_ids is False
    # bit for bit what fresh states give, and each graph's own law
    for g, probs in got.items():
        m = on_dense.member if g is dense else member
        for rule, p in zip(rules, probs):
            assert p.tobytes() == step_probabilities(g, state_from_member(m), rule).tobytes()
    assert got[star][0].tolist() == pytest.approx([rules[0].f1(0.4)] + [1.0] * 5)
    assert all(a.tobytes() != b.tobytes() for a, b in zip(got[ring], got[star]))
    # the state does not keep the graph it was counted on alive, and a new
    # graph, even at the freed one's address, counts again
    ring_law = got.pop(ring)[0]
    ref = weakref.ref(ring)
    del ring
    gc.collect()
    assert ref() is None
    counted = len(count_calls)
    ring = graph_from_edges(3, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    assert step_probabilities(ring, s, rules[0]).tobytes() == ring_law.tobytes()
    assert len(count_calls) == counted + 1


@given(
    a1=st.floats(min_value=0.0, max_value=1.0),
    a2=st.floats(min_value=0.0, max_value=1.0),
)
def test_delta_round_trip(a1, a2):
    d1, d2 = to_delta(a1, a2)
    b1, b2 = to_alpha(d1, d2)
    assert b1 == pytest.approx(a1, abs=1e-12)
    assert b2 == pytest.approx(a2, abs=1e-12)
    assert abs(d1) + abs(d2) <= 1 + 1e-12


# --- steps ---


def as_graph(neighbors: list[set[int]]) -> vd.Graph:
    nv = len(neighbors)
    edges = [(a, b) for a in range(nv) for b in neighbors[a] if a < b]
    return graph_from_edges(nv // 2, edges)


def all_states(nv: int):
    for mask in range(1 << nv):
        yield np.array([(mask >> v) & 1 == 1 for v in range(nv)])


@pytest.mark.parametrize("sampler", ["bo3", "bo2", 5])
def test_step_probabilities_equal_exhaustive_sampling_on_4_vertex_graphs(sampler):
    # every labeled graph on 4 vertices, every opinion state: the polynomial
    # path must equal the exact enumeration of the sampling semantics
    rule = {
        "bo3": make_rule_bo3(),
        "bo2": make_rule_bo2(),
        5: make_rule_best_of(2),
    }[sampler]
    for neighbors in oracles.enumerate_symmetric_graphs(4):
        g = as_graph(neighbors)
        deg = g.degrees
        for member in all_states(4):
            s = state_from_member(member)
            got = step_probabilities(g, s, rule)
            for v in range(4):
                deg_a = sum(1 for w in neighbors[v] if member[w])
                want = oracles.sampling_adoption_prob(
                    int(deg[v]), deg_a, bool(member[v]), sampler
                )
                assert got[v] == pytest.approx(float(want), abs=1e-12)


def test_step_probabilities_on_a_hand_checked_graph():
    # path 0-1-2-3 with opinion set {1,2}: x = (1, 1/2, 1/2, 1)
    g = graph_from_edges(2, [(0, 1), (1, 2), (2, 3)])
    s = state_from_member(np.array([False, True, True, False]))
    rule = make_rule_bo3()
    f = rule.f1
    assert step_probabilities(g, s, rule) == pytest.approx(
        [f(1.0), f(0.5), f(0.5), f(1.0)]
    )


def test_sampler_empirical_frequencies_track_probabilities():
    g = generate_sbm(60, 0.3, 0.1, seed=5)
    s = make_initial(g, vd.biased_global(0.2), np.random.default_rng(3))
    for rule in (make_rule_bo3(), make_rule_bo2()):
        P = step_probabilities(g, s, rule)
        rng = np.random.default_rng(11)
        hits = np.zeros(g.num_vertices)
        reps = 3000
        for _ in range(reps):
            hits += step_sampling(g, s, rule, rng).member
        # 5 sigma binomial envelope per vertex
        sigma = np.sqrt(np.maximum(P * (1 - P), 1e-12) / reps)
        assert np.all(np.abs(hits / reps - P) <= 5 * sigma + 1e-9), rule.name


def test_step_is_deterministic_given_generator_state():
    g = generate_sbm(40, 0.3, 0.1, seed=2)
    s = make_initial(g, vd.half_half(), np.random.default_rng(1))
    for rule in (make_rule_bo3(), make_rule_bo2(), make_rule_best_of(3)):
        a = step_sampling(g, s, rule, np.random.default_rng(77))
        b = step_sampling(g, s, rule, np.random.default_rng(77))
        assert np.array_equal(a.member, b.member)


def test_step_stream_layout_is_state_independent():
    # the rng must advance identically for any opinion state, so per-trial
    # streams stay aligned whatever trajectory is realized; every step draws
    # exactly nv*m/2 raw 64-bit words, also on a graph without edges
    graphs = [graph_from_edges(3, [(0, 1), (2, 3)]), graph_from_edges(3, [])]  # 4,5 / all isolated
    s_a = state_from_member(np.isin(np.arange(6), [0, 4]))
    s_b = state_from_member(np.isin(np.arange(6), [1, 2, 3]))
    for g in graphs:
        for rule in (make_rule_bo3(), make_rule_bo2(), make_rule_best_of(2)):
            r1 = np.random.default_rng(9)
            r2 = np.random.default_rng(9)
            r3 = np.random.default_rng(9)
            step_sampling(g, s_a, rule, r1)
            step_sampling(g, s_b, rule, r2)
            r3.bit_generator.random_raw(g.num_vertices * rule.draws // 2)
            raw = [r.bit_generator.random_raw() for r in (r1, r2, r3)]
            assert raw[0] == raw[1] == raw[2], (rule.name, g.num_edges)


def _polyval_coeffs(name):
    # (f1, f2) monomial coefficients, ascending in degree, independent of the
    # package: bo2's exact retention 2x - x^2 and adoption x^2, and the
    # oracle's binomial tail for the majority of every odd m
    if name == "bo2":
        return [0.0, 2.0, -1.0], [0.0, 0.0, 1.0]
    m = int(name.removeprefix("bo").removeprefix("best_of_"))
    coeffs = [float(c) for c in oracles.best_of_coeffs(m // 2)]
    return coeffs, coeffs


def _reference_step_probabilities(g, member, rule):
    # the documented semantics, written with polyval: f1 for opinion-1
    # holders, f2 for the rest, isolated vertices keep their opinion
    deg = np.diff(g.offsets)
    deg_a = np.array(
        [np.count_nonzero(member[g.neighbors[g.offsets[v] : g.offsets[v + 1]]]) for v in range(g.num_vertices)]
    )
    x = deg_a / np.maximum(deg, 1)
    c1, c2 = _polyval_coeffs(rule.name)
    f1 = npoly.polyval(x, c1)
    f2 = npoly.polyval(x, c2)
    prob = np.where(member, f1, f2)
    prob = np.where(deg == 0, member.astype(np.float64), prob)
    return np.clip(prob, 0.0, 1.0)


def _sbm_with_isolated_vertices():
    base = generate_sbm(20, 0.4, 0.1, seed=3)
    cut = {7, 39}  # isolated vertices in the middle and at the end
    edges = [
        (u, int(v))
        for u in range(base.num_vertices)
        for v in base.neighbors[base.offsets[u] : base.offsets[u + 1]]
        if u < v and u not in cut and v not in cut
    ]
    g = graph_from_edges(20, edges)
    assert np.flatnonzero(g.degrees == 0).tolist() == [7, 39]
    return g


def _hub_graph(n, hub_degree, isolated=()):
    # vertex 0 is joined to the first hub_degree of the other vertices,
    # which are joined among themselves at random, avoiding the isolated ones
    rng = np.random.default_rng(hub_degree)
    nv = 2 * n
    rest = [v for v in range(1, nv) if v not in isolated]
    edges = [(0, v) for v in rest[:hub_degree]]
    edges += [(u, v) for u in rest for v in rest if u < v and rng.random() < 0.2]
    g = graph_from_edges(n, edges)
    assert int(g.degrees.max()) == hub_degree
    assert np.flatnonzero(g.degrees == 0).tolist() == sorted(isolated)
    return g


def test_step_probabilities_match_polyval_reference_bit_for_bit():
    # the law itself: every rule's f1 and f2 equal polyval bit for bit on a
    # fine grid, on seeded uniforms and on scalars
    xs = [np.linspace(0.0, 1.0, 200_001), np.random.default_rng(21).random(10**6), 0, 1 / 3, 0.3, 1]
    for name in ["bo2", "bo3"] + [f"best_of_{m}" for m in range(3, 26, 2)]:
        rule = vd.VotingRule(name)
        for f, coeffs in zip((rule.f1, rule.f2), _polyval_coeffs(name)):
            for x in xs:
                assert np.array(f(x)).tobytes() == np.array(npoly.polyval(x, coeffs)).tobytes(), name
    cap = vd.voting_core.PROB_TABLE_DEG
    graphs = [
        _sbm_with_isolated_vertices(),  # isolated vertices below the cap
        graph_from_edges(3, []),
        _hub_graph(32, cap),  # the table path at its largest degree
        _hub_graph(33, cap + 1, isolated=(65,)),  # the Horner path
        generate_sbm(1200, 0.025, 0.006, seed=1),  # Horner: more than one count block
    ]
    assert int(graphs[0].degrees.max()) < cap
    assert graphs[-1].neighbors.size > vd.sbm_graph.BUILD_BLOCK and int(graphs[-1].degrees.max()) <= cap
    rules = [
        make_rule_bo3(),
        make_rule_bo2(),
        make_rule_best_of(2),
        make_rule_best_of(12),  # the widest rule
    ]
    tables = [rule._table for rule in rules]
    rng = np.random.default_rng(8)
    for g in graphs:
        nv = g.num_vertices
        members = [np.zeros(nv, dtype=bool), np.ones(nv, dtype=bool)]
        members += [rng.random(nv) < rho for rho in (0.2, 0.5, 0.8)]
        for member in members:
            s = state_from_member(member)
            for rule in rules:
                got = step_probabilities(g, s, rule)
                want = _reference_step_probabilities(g, member, rule)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (rule.name, nv)
    assert [g._key_ids is False for g in graphs] == [False, False, False, True, True]
    # one read-only table per rule, of a size fixed by the cap alone: degree
    # d owns the entries from d(d+1) on, its law for a vertex holding
    # opinion 2 and then for one holding opinion 1, and degree 0 holds what
    # an isolated vertex keeps; no graph replaced it
    for rule, table in zip(rules, tables):
        assert rule._table is table
        assert not table.flags.writeable
        assert table.shape == ((cap + 1) * (cap + 2),)
        assert table[:2].tolist() == [0.0, 1.0]
        # bo2's two laws meet only at x = 0 and 1, all that degree 1 holds
        halves = [(table[d * (d + 1) :][: d + 1], table[(d + 1) ** 2 :][: d + 1]) for d in range(2, cap + 1)]
        assert {a.tobytes() == b.tobytes() for a, b in halves} == {rule.name != "bo2"}, rule.name


def _reference_step_sampling(g, member, rule, bitgen):
    # the documented map in Python ints: the step's nv*m/2 raw words, split
    # low half first, give 32-bit word j*nv + v to vertex v's j-th sample,
    # which reads neighbour (word * deg) >> 32; bo2 adopts the two samples'
    # opinion when they agree, and isolated vertices keep their own
    m = rule.draws
    nv = g.num_vertices
    words = []
    for w in bitgen.random_raw(nv * m // 2).tolist():
        words += (w & 0xFFFFFFFF, w >> 32)
    new = member.copy()
    for v in range(nv):
        nbrs = g.neighbors[g.offsets[v] : g.offsets[v + 1]].tolist()
        if not nbrs:
            continue
        ones = sum(bool(member[nbrs[(words[j * nv + v] * len(nbrs)) >> 32]]) for j in range(m))
        if m == 2:  # bo2
            new[v] = member[v] if ones == 1 else ones == 2
        else:
            new[v] = ones > m // 2
    return new


def _ceil_div(a, b):
    return -(-a // b)


def test_multiply_shift_hits_each_neighbour_almost_equally():
    # Every neighbour of a degree-d vertex is hit by floor(2^32/d) or
    # ceil(2^32/d) of the 2^32 words, so its probability is 1/d within a
    # relative bias below d/2^32 (at most 1.2e-7 at degree 500). The words
    # w with (w * d) >> 32 == k are those with k * 2^32 <= w * d < (k+1) * 2^32.
    rng = np.random.default_rng(0)
    degrees = list(range(1, 65))
    degrees += [2**j + e for j in range(6, 31) for e in (-1, 1)] + [2**31 - 1]
    for d in degrees:
        if d <= 64:
            ks = range(d)
        else:
            ks = sorted({0, 1, d // 2, d - 2, d - 1, *rng.integers(0, d, 20).tolist()})
        counts = [_ceil_div((k + 1) * 2**32, d) - _ceil_div(k * 2**32, d) for k in ks]
        assert set(counts) <= {2**32 // d, _ceil_div(2**32, d)}, d
        if d <= 64:
            assert sum(counts) == 2**32
        assert ((2**32 - 1) * d) >> 32 == d - 1
    # the kernel's numpy arithmetic (uint32 words times int64 degrees, then
    # a shift) agrees with Python ints at the extremes
    words = np.array([0, 1, 2**31, 2**32 - 1], dtype=np.uint32)
    degs = np.array([1, 2, 500, 2**31 - 1], dtype=np.int64)
    got = (words[:, None] * degs) >> 32
    assert got.dtype == np.int64
    assert got.tolist() == [[(w * d) >> 32 for d in degs.tolist()] for w in words.tolist()]


class _WordFeed:
    """Stands in for a Generator: step_sampling reads its randomness only
    through bit_generator.random_raw, which here returns chosen 32-bit words
    in the step's (m, nv) layout, low half first."""

    def __init__(self, words):
        self.bit_generator = self
        self._raw = np.ascontiguousarray(words, dtype="<u4").view("<u8").ravel()

    def random_raw(self, size):
        assert size == self._raw.size
        return self._raw


def _kernel_adoption_probs(rule, reps):
    """Exact Pr[v holds opinion 1 after one step] of the real kernel, as a
    Fraction, for each (graph, member, v) in reps. All d^m sample tuples of
    every v run through one step_sampling call on disjoint copies of the
    graphs, copy t feeding v, for each sample of tuple t with neighbour slot
    k, the first or (alternately) the last word of slot k's bucket
    [ceil(k*2^32/d), ceil((k+1)*2^32/d)). Tuple t weighs the product of its
    slots' bucket sizes out of 2^(32m)."""
    m = rule.draws
    edges, member, targets, slot_words, weights, base = [], [], [], [], [], 0
    for g, own, v in reps:
        d = int(g.degrees[v])
        # an isolated vertex still draws: one copy, one bucket of all 2^32 words
        starts = [_ceil_div(k * 2**32, d) for k in range(d + 1)] if d else [0, 2**32]
        bounds = np.array(starts, dtype=np.int64)
        slots = np.indices((max(d, 1),) * m).reshape(m, -1)  # one tuple per column
        copies = slots.shape[1]
        nv = g.num_vertices
        tail = np.repeat(np.arange(nv), g.degrees)
        uv = np.stack([tail, g.neighbors])[:, tail < g.neighbors].T
        shift = base + nv * np.arange(copies)
        edges.append((uv[None] + shift[:, None, None]).reshape(-1, 2))
        member.append(np.tile(own, copies))
        targets.append(shift + v)
        ends = (np.arange(m)[:, None] + np.arange(copies)) % 2
        slot_words.append(np.where(ends, bounds[1:][slots] - 1, bounds[:-1][slots]))
        # Python-int products: 2^(32m) overflows int64
        weights.append(np.diff(bounds).astype(object)[slots].prod(axis=0))
        base += nv * copies
    words = np.zeros((m, base), dtype=np.uint32)
    for t, w in zip(targets, slot_words):
        words[:, t] = w
    union = graph_from_edges(base // 2, np.concatenate(edges))
    s = state_from_member(np.concatenate(member))
    new = step_sampling(union, s, rule, _WordFeed(words)).member
    return [Fraction(int(wt[new[t]].sum()), 2 ** (32 * m)) for t, wt in zip(targets, weights)]


@functools.lru_cache(maxsize=1)
def _vertex_patterns():
    """Every (degree, own opinion, opinion-1 neighbour slots) on the graphs
    with 2 and 4 vertices and a sample of those with 6, over every opinion
    state, with one (graph, member, v) that shows it and its opinion-1
    neighbour count. The pattern fixes the kernel's outcome for every word."""
    graphs = [*oracles.enumerate_symmetric_graphs(2), *oracles.enumerate_symmetric_graphs(4)]
    six = list(oracles.enumerate_symmetric_graphs(6))
    graphs += six[::257] + six[-1:]  # the complete graph gives degree 5
    patterns = {}
    for neighbors in graphs:
        g = as_graph(neighbors)
        for member in all_states(g.num_vertices):
            ones = member[g.neighbors]
            for v in range(g.num_vertices):
                row = ones[g.offsets[v] : g.offsets[v + 1]]
                key = (int(g.degrees[v]), bool(member[v]), row.tobytes())
                if key not in patterns:
                    patterns[key] = ((g, member, v), int(row.sum()))
    return patterns


@pytest.mark.parametrize("tag", ["bo3", "bo2", 5])
def test_step_sampling_exact_law_matches_oracle(tag):
    # The kernel's exact adoption probability against the enumerated sampling
    # law, one kernel pass per vertex pattern. A degree that divides 2^32
    # gives equal buckets and the exact law; elsewhere each sample's slot
    # law is off by under 1/2^32 per slot, so the gap is at most m*d/2^32.
    rule = {"bo3": make_rule_bo3, "bo2": make_rule_bo2}.get(tag, lambda: make_rule_best_of(2))()
    m = rule.draws
    patterns = _vertex_patterns()
    got = _kernel_adoption_probs(rule, [rep for rep, _deg_a in patterns.values()])
    gaps = {}
    for ((d, own, row), (_rep, deg_a)), p in zip(patterns.items(), got):
        want = oracles.sampling_adoption_prob(d, deg_a, own, tag)
        if d in (0, 1, 2, 4):
            assert p == want, (d, own, row)
        else:
            assert abs(p - want) <= Fraction(m * d, 2**32), (d, own, row)
        gaps[d] = max(gaps.get(d, 0), abs(p - want))
    assert sorted(gaps) == [0, 1, 2, 3, 4, 5]
    assert gaps[3] > 0 and gaps[5] > 0  # the inexact degrees are reached


def test_step_sampling_matches_reference_bit_for_bit():
    graphs = [_sbm_with_isolated_vertices(), graph_from_edges(3, []), graph_from_edges(1, [(0, 1)])]
    rules = [make_rule_bo2(), make_rule_bo3(), make_rule_best_of(2), make_rule_best_of(12)]
    for g in graphs:
        nv = g.num_vertices
        for rule in rules:
            starts = np.random.default_rng(4)
            got_rng = np.random.Generator(np.random.Philox(21))
            want_bitgen = np.random.Philox(21)
            s = state_from_member(starts.random(nv) < 0.5)
            want = s.member
            for t in range(200):
                s = step_sampling(g, s, rule, got_rng)
                want = _reference_step_sampling(g, want, rule, want_bitgen)
                assert s.member.dtype == want.dtype and s.member.shape == want.shape
                assert s.member.tobytes() == want.tobytes(), (rule.name, nv, t)
                if s.count1 + s.count2 in (0, nv):
                    # consensus is absorbing: restart both from a fresh state
                    s = state_from_member(starts.random(nv) < 0.5)
                    want = s.member
            assert got_rng.bit_generator.random_raw() == want_bitgen.random_raw(), (rule.name, nv)


def test_rule_coefficients_are_fixed_at_construction():
    # the law's one representation is tuples of Python floats, and its
    # table is read-only
    rule = make_rule_bo2()
    assert all(type(c) is float for coeffs in rule._horner for c in coeffs)
    assert isinstance(rule._horner, tuple) and all(isinstance(c, tuple) for c in rule._horner)
    with pytest.raises(ValueError):
        rule._table[0] = 0.5


def test_rule_fields_cannot_be_reassigned():
    # what step_probabilities reads is derived at construction, so a new
    # polynomial assigned later would leave the rule on its old law
    rule = make_rule_bo3()
    for name in ("name", "draws", "_horner", "_table"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rule, name, np.array([0.0, 1.0]))
    g = graph_from_edges(2, [(0, 1), (1, 2), (2, 3)])
    s = state_from_member(np.array([True, False, False, True]))
    assert step_probabilities(g, s, rule)[1] == rule.f2(0.5)


def test_a_state_of_another_size_is_rejected():
    # a 6-vertex state on the 4-vertex path graph used to be read at the
    # wrong vertices, stepped to a 4-vertex state, and taken for consensus
    g = graph_from_edges(2, [(0, 1), (1, 2), (2, 3)])
    s = state_from_member(np.array([True, True, False, False, False, False]))
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="6 vertices, the graph 4"):
        step_probabilities(g, s, make_rule_bo3())
    with pytest.raises(ValueError, match="6 vertices, the graph 4"):
        step_sampling(g, s, make_rule_bo3(), rng)
    with pytest.raises(ValueError, match="6 vertices, the graph 4"):
        run_until_consensus(g, s, make_rule_bo3(), 10, rng)
    assert rng.bit_generator.state == before  # nothing was drawn


def test_rule_compares_by_identity():
    a, b = make_rule_bo3(), make_rule_bo3()
    assert a == a and a != b
    assert len({a, b, a}) == 2
    # a frozen map over a rule hashes too
    m = vd.InducedMap(a, 0.1)
    assert hash(m) == hash(vd.InducedMap(a, 0.1))


def test_isolated_vertices_keep_opinion():
    g = graph_from_edges(2, [])
    s = state_from_member(np.array([True, False, True, False]))
    for rule in (make_rule_bo3(), make_rule_bo2(), make_rule_best_of(2)):
        assert np.array_equal(step_sampling(g, s, rule, np.random.default_rng(0)).member, s.member)
    assert step_probabilities(g, s, make_rule_bo3()) == pytest.approx([1, 0, 1, 0])


def test_consensus_states_are_absorbing():
    g = generate_sbm(20, 0.5, 0.2, seed=1)
    ones = state_from_member(np.ones(40, dtype=bool))
    zeros = state_from_member(np.zeros(40, dtype=bool))
    for rule in (make_rule_bo3(), make_rule_bo2()):
        assert step_sampling(g, ones, rule, np.random.default_rng(0)).count1 == 20
        assert step_sampling(g, zeros, rule, np.random.default_rng(0)).count1 == 0


# --- trajectories ---


def _observer(seen, stop=lambda a1, a2: False):
    # keeps every visited state in seen; ends the run where stop holds
    def observe(t, a1, a2):
        seen.append((t, a1, a2))
        return stop(a1, a2)

    return observe


def test_run_until_consensus_from_full_set_is_immediate():
    g = generate_sbm(15, 0.4, 0.1, seed=0)
    s = state_from_member(np.ones(30, dtype=bool))
    seen = []
    traj = run_until_consensus(g, s, make_rule_bo3(), 10, np.random.default_rng(0), observe=_observer(seen))
    assert traj.status == vd.STATUS_CONSENSUS
    assert traj.final_opinion == 1 and traj.t_cons == 0
    assert seen == [(0, 1.0, 1.0)]
    s = state_from_member(np.zeros(30, dtype=bool))
    traj = run_until_consensus(g, s, make_rule_bo3(), 10, np.random.default_rng(0))
    assert traj.final_opinion == 2 and traj.t_cons == 0


def test_run_until_consensus_timeout_is_a_result():
    g = generate_sbm(15, 0.4, 0.1, seed=0)
    s = make_initial(g, vd.half_half(), np.random.default_rng(4))
    traj = run_until_consensus(g, s, make_rule_bo3(), 0, np.random.default_rng(0))
    assert traj.status == vd.STATUS_TIMEOUT
    assert traj.final_opinion is None and traj.t_cons is None
    assert traj.steps_run == 0


def test_run_until_consensus_records_every_step_when_asked():
    g = generate_sbm(50, 0.3, 0.05, seed=3)
    s = make_initial(g, vd.biased_global(0.3), np.random.default_rng(1))
    seen = []
    traj = run_until_consensus(g, s, make_rule_bo3(), 200, np.random.default_rng(2), observe=_observer(seen))
    assert traj.status == vd.STATUS_CONSENSUS
    assert len(seen) == traj.t_cons + 1
    ts = [row[0] for row in seen]
    assert ts == list(range(traj.t_cons + 1))
    # the run keeps no per-step state of its own
    assert not hasattr(traj, "records")


def test_run_until_consensus_observer_can_stop_the_run():
    g = generate_sbm(50, 0.3, 0.05, seed=3)
    s = make_initial(g, vd.biased_global(0.3), np.random.default_rng(1))
    rule = make_rule_bo3()
    full = []
    traj = run_until_consensus(g, s, rule, 200, np.random.default_rng(2), observe=_observer(full))
    assert traj.t_cons >= 2
    # at t=0
    seen = []
    traj = run_until_consensus(
        g, s, rule, 200, np.random.default_rng(2), observe=_observer(seen, lambda a1, a2: True)
    )
    assert traj.status == vd.STATUS_STOPPED
    assert (traj.steps_run, traj.t_cons, traj.final_opinion) == (0, None, None)
    assert seen == full[:1]
    # mid-run: the first state with alpha1 above the one after t=0
    bar = full[1][1]
    seen = []
    traj = run_until_consensus(
        g, s, rule, 200, np.random.default_rng(2), observe=_observer(seen, lambda a1, a2: a1 > bar)
    )
    want = next(t for t, a1, _a2 in full if a1 > bar)
    assert want > 1
    assert traj.status == vd.STATUS_STOPPED and traj.steps_run == want
    assert seen == full[: want + 1]
    # observe is called before the consensus check, and a consensus state can
    # stop a run
    ones = state_from_member(np.ones(100, dtype=bool))
    traj = run_until_consensus(
        g, ones, rule, 10, np.random.default_rng(0), observe=lambda t, a1, a2: a1 == 1.0
    )
    assert traj.status == vd.STATUS_STOPPED and traj.t_cons is None


# --- initial conditions ---


def test_exact_counts_and_clustered_formulas():
    g = generate_sbm(1000, 0.05, 0.01, seed=1)
    rng = np.random.default_rng(0)
    s = make_initial(g, vd.exact_counts(1000, 1000), rng)
    assert (s.count1, s.count2) == (1000, 1000)  # full set, consensus at t=0
    s = make_initial(g, vd.clustered(0.0, 0.0), rng)
    assert (s.count1, s.count2) == (500, 500)
    s = make_initial(g, vd.clustered(0.8839, 0.0), rng)
    assert (s.count1, s.count2) == (942, 58)
    s = make_initial(g, vd.biased_global(0.2), rng)
    assert (s.count1, s.count2) == (600, 600)


def test_initial_members_stay_inside_their_community():
    g = generate_sbm(100, 0.1, 0.02, seed=2)
    s = make_initial(g, vd.exact_counts(70, 10), np.random.default_rng(5))
    assert int(s.member[:100].sum()) == 70
    assert int(s.member[100:].sum()) == 10


def test_random_density_tracks_rho():
    g = generate_sbm(500, 0.05, 0.01, seed=3)
    s = make_initial(g, vd.random_density(0.3), np.random.default_rng(8))
    total = s.count1 + s.count2
    sigma = math.sqrt(1000 * 0.3 * 0.7)
    assert abs(total - 300) < 6 * sigma


def test_init_family_validation():
    g = generate_sbm(10, 0.5, 0.2, seed=0)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        make_initial(g, vd.clustered(0.5, 0.9), rng)  # counts overflow n
    with pytest.raises(ValueError):
        make_initial(g, vd.exact_counts(11, 0), rng)
    with pytest.raises(ValueError):
        make_initial(g, vd.random_density(1.5), rng)


def test_parse_init_family_round_trips_and_rejects():
    for text in (
        "half_half",
        "biased_global(0.2)",
        "clustered(0.3,0.1)",
        "clustered(-0.3,0.1)",
        "exact_counts(120,80)",
        "random_density(0.25)",
    ):
        fam = parse_init_family(text)
        assert parse_init_family(str(fam)) == fam
    with pytest.raises(ValueError):
        parse_init_family("clustered(1,2,3)")
    with pytest.raises(ValueError):
        parse_init_family("mystery(1)")
    with pytest.raises(ValueError):
        parse_init_family("clustered(a,b)")


def test_integer_init_labels_round_trip():
    # an integer parameter prints exactly: with six significant digits,
    # exact_counts(1234567,0) read back as (1234570, 0), and 10**400 made the
    # range message raise OverflowError
    for c in (999999, 1234567, 2**53 + 1, 10**400):
        fam = vd.exact_counts(c, 0)
        assert str(fam) == f"exact_counts({c},0)"
        assert parse_init_family(str(fam)) == fam
    g = generate_sbm(5, 0.5, 0.1, seed=0)
    with pytest.raises(ValueError, match="needs counts"):
        make_initial(g, vd.exact_counts(10**400, 0), np.random.default_rng(0))


@pytest.mark.parametrize(
    "text",
    [
        "biased_global(inf)",
        "clustered(inf,0)",
        "clustered(0,nan)",
        "random_density(-inf)",
        "exact_counts(inf,0)",
        "exact_counts(1e400,0)",
        "exact_counts(1.5,2)",
        "exact_counts(3,nan)",
    ],
)
def test_parse_init_family_rejects_non_finite_and_fractional_parameters(text):
    # the non-finite ones used to end in an OverflowError inside make_initial,
    # and exact_counts(1.5,2) ran as (1, 2)
    with pytest.raises(ValueError, match="finite parameters|integer counts"):
        parse_init_family(text)


def test_library_init_families_reject_non_finite_parameters():
    g = generate_sbm(5, 0.5, 0.1, seed=0)
    rng = np.random.default_rng(0)
    builds = [
        lambda: vd.biased_global(math.inf),
        lambda: vd.clustered(math.inf, 0.0),
        lambda: vd.clustered(0.0, math.nan),
        lambda: vd.exact_counts(math.inf, 0),
        lambda: vd.exact_counts(1.5, 2),
        lambda: vd.InitFamily("biased_global", (math.inf,)),
    ]
    for build in builds:
        with pytest.raises(ValueError, match="finite parameters|integer counts"):
            make_initial(g, build(), rng)
    # a huge finite parameter takes n*alpha to inf: a range error, not an
    # OverflowError
    for family in (vd.biased_global(1e308), vd.clustered(1e308, 1e308), vd.exact_counts(10**9, 0)):
        with pytest.raises(ValueError, match="needs counts"):
            make_initial(g, family, rng)
    # integral floats and numpy integers are exact counts
    assert vd.exact_counts(2.0, np.int64(3)) == vd.exact_counts(2, 3)
    assert make_initial(g, vd.exact_counts(2.0, 3), rng).count1 == 2


def test_init_families_are_checked_at_construction():
    # each used to fail late or be coerced: clustered with one parameter
    # raised TypeError inside make_initial, random_density with none
    # IndexError, exact_counts(1.5, 2) ran as (1, 2), and half_half ignored
    # its parameter
    g = generate_sbm(5, 0.5, 0.1, seed=1)
    for kind, params, match in [
        ("clustered", (0.1,), "clustered expects 2 parameter"),
        ("random_density", (), "random_density expects 1 parameter"),
        ("exact_counts", (1.5, 2), "integer counts"),
        ("half_half", (3.0,), "half_half expects 0 parameter"),
        ("uniform", (), "unknown init family"),
    ]:
        with pytest.raises(ValueError, match=match):
            make_initial(g, vd.InitFamily(kind, params), np.random.default_rng(0))
    assert vd.InitFamily("exact_counts", (2.0, np.int64(3))).params == (2, 3)


@given(st.integers(1, 2000), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_clustered_counts_match_the_delta_formula(n, d1, d2):
    # round(n * alpha_i) with alpha from to_alpha equals the direct
    # round(n(1+d2±d1)/2), because halving a double is exact
    want = (round(n * (1 + d2 + d1) / 2), round(n * (1 + d2 - d1) / 2))
    g = graph_from_edges(n, [])
    if all(0 <= c <= n for c in want):
        s = make_initial(g, vd.clustered(d1, d2), np.random.default_rng(0))
        assert (s.count1, s.count2) == want
    else:
        with pytest.raises(ValueError, match="needs counts"):
            make_initial(g, vd.clustered(d1, d2), np.random.default_rng(0))


# --- CSV ---


def test_trajectory_csv_format():
    g = generate_sbm(40, 0.3, 0.05, seed=6)
    s = make_initial(g, vd.biased_global(0.3), np.random.default_rng(2))
    buf = io.StringIO()
    traj = write_trajectory_csv(g, s, make_rule_bo3(), 100, np.random.default_rng(3), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,alpha1,alpha2,delta1,delta2"
    assert lines[-1] == f"# status=consensus opinion={traj.final_opinion} t_cons={traj.t_cons}"
    assert traj.status == vd.STATUS_CONSENSUS and len(lines) == traj.t_cons + 3
    # one row per state the same run visits
    seen = []
    run_until_consensus(g, s, make_rule_bo3(), 100, np.random.default_rng(3), observe=_observer(seen))
    for (t, want1, want2), row in zip(seen, lines[1:-1], strict=True):
        fields = row.split(",")
        assert int(fields[0]) == t
        a1, a2, d1, d2 = map(float, fields[1:])
        assert (a1, a2) == (want1, want2)
        assert d1 == pytest.approx(a1 - a2, abs=1e-8)
        assert d2 == pytest.approx(a1 + a2 - 1, abs=1e-8)


def test_trajectory_csv_timeout_comment():
    g = generate_sbm(20, 0.4, 0.1, seed=1)
    s = make_initial(g, vd.half_half(), np.random.default_rng(0))
    buf = io.StringIO()
    traj = write_trajectory_csv(g, s, make_rule_bo3(), 0, np.random.default_rng(0), buf)
    assert traj.status == vd.STATUS_TIMEOUT
    assert buf.getvalue().splitlines()[-1] == "# status=timeout steps=0"


# --- monotone coupling ---


def test_rule_polynomials_nondecreasing_on_grid():
    grid = np.linspace(0.0, 1.0, 201)
    for rule in (make_rule_bo3(), make_rule_bo2(), make_rule_best_of(2), make_rule_best_of(3)):
        for f in (rule.f1, rule.f2):
            vals = f(grid)
            assert np.all(np.diff(vals) >= -1e-12), rule.name


@given(st.integers(0, 2**40 - 1), st.integers(0, 2**40 - 1), st.sampled_from(["bo2", "bo3", "5"]))
@settings(max_examples=60, deadline=None)
def test_enlarging_a_never_lowers_adoption_probability(bits_a, bits_extra, which):
    # pointwise monotone coupling: A ⊆ B implies Pr[v∈A'] ≤ Pr[v∈B'] for all v
    rule = {"bo2": make_rule_bo2, "bo3": make_rule_bo3}.get(which, lambda: make_rule_best_of(2))()
    g = generate_sbm(20, 0.5, 0.2, seed=17)
    nv = 40
    a = np.array([(bits_a >> (v % 40)) & 1 if v < 40 else 0 for v in range(nv)], dtype=bool)
    b = a | np.array([(bits_extra >> (v % 40)) & 1 for v in range(nv)], dtype=bool)
    pa = step_probabilities(g, state_from_member(a), rule)
    pb = step_probabilities(g, state_from_member(b), rule)
    assert np.all(pb >= pa - 1e-12)
