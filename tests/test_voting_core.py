"""Voting rules, synchronous steps, trajectories, and initial conditions."""

from __future__ import annotations

import io
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from hypothesis import given, settings
from hypothesis import strategies as st

import votedyn as vd
from votedyn import (
    OpinionState,
    fractions,
    generate_sbm,
    graph_from_edges,
    make_initial,
    make_rule_best_of,
    make_rule_bo2,
    make_rule_bo3,
    make_rule_polynomial,
    parse_init_family,
    run_until_consensus,
    state_from_member,
    step,
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
    for x in np.linspace(0.0, 1.0, 41):
        assert rule.f1(x) == pytest.approx(oracles.bo3_f(x), abs=1e-15)
        assert rule.f2(x) == pytest.approx(oracles.bo3_f(x), abs=1e-15)
    assert np.array_equal(rule.f1_coeffs, rule.f2_coeffs)


def test_bo2_polynomials_match_behavioral_enumeration():
    rule = make_rule_bo2()
    for x in np.linspace(0.0, 1.0, 41):
        assert rule.f1(x) == pytest.approx(oracles.bo2_f1(x), abs=1e-15)
        assert rule.f2(x) == pytest.approx(oracles.bo2_f2(x), abs=1e-15)
    assert not np.array_equal(rule.f1_coeffs, rule.f2_coeffs)
    # absorption at both ends
    assert rule.f1(1.0) == 1.0 and rule.f1(0.0) == 0.0
    assert rule.f2(1.0) == 1.0 and rule.f2(0.0) == 0.0


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 12])
def test_best_of_coefficients_are_exact_binomial_tails(k):
    rule = make_rule_best_of(k)
    expect = [float(c) for c in oracles.best_of_coeffs(k)]
    assert list(rule.f1_coeffs) == expect
    # value tolerance follows the Horner forward-error bound of the expansion
    tol = max(1e-12, 2 * len(expect) * np.finfo(np.float64).eps * sum(abs(c) for c in expect))
    for x in (0.0, 0.1, 0.3, 0.5, 0.77, 1.0):
        assert rule.f1(x) == pytest.approx(
            float(oracles.best_of_tail(k, Fraction(x).limit_denominator(10**12))),
            abs=tol,
        )


def test_best_of_frozen_values():
    bo5 = make_rule_best_of(2)
    assert list(bo5.f1_coeffs) == [0.0, 0.0, 0.0, 10.0, -15.0, 6.0]
    assert bo5.f1(0.3) == pytest.approx(0.16308, abs=1e-12)
    assert make_rule_best_of(1).name == "best_of_3"
    with pytest.raises(ValueError):
        make_rule_best_of(0)
    with pytest.raises(ValueError):
        make_rule_best_of(13)  # sample count capped at 25


def test_rule_range_validation():
    with pytest.raises(ValueError):
        make_rule_polynomial("bad", [0.0, 2.0], [0.0, 1.0])  # f1(1)=2
    with pytest.raises(ValueError):
        make_rule_polynomial("bad", [0.0, 1.0], [-0.5, 1.0])  # f2(0)<0
    ok = make_rule_polynomial("id", [0.0, 1.0], [0.0, 1.0])
    assert np.array_equal(ok.f1_coeffs, ok.f2_coeffs)


# --- states and coordinates ---


def test_state_constructors_count_communities():
    member = np.array([True, False, True, True, False, False])
    s = state_from_member(member)
    assert (s.count1, s.count2) == (2, 1)
    assert s.n == 3
    assert fractions(s) == (2 / 3, 1 / 3)


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
            hits += step(g, s, rule, rng).member
        # 5 sigma binomial envelope per vertex
        sigma = np.sqrt(np.maximum(P * (1 - P), 1e-12) / reps)
        assert np.all(np.abs(hits / reps - P) <= 5 * sigma + 1e-9), rule.name


def test_step_is_deterministic_given_generator_state():
    g = generate_sbm(40, 0.3, 0.1, seed=2)
    s = make_initial(g, vd.half_half(), np.random.default_rng(1))
    for rule in (make_rule_bo3(), make_rule_bo2(), make_rule_best_of(3)):
        a = step(g, s, rule, np.random.default_rng(77))
        b = step(g, s, rule, np.random.default_rng(77))
        assert np.array_equal(a.member, b.member)


def test_step_stream_layout_is_state_independent():
    # the rng must advance identically for any opinion state, so per-trial
    # streams stay aligned whatever trajectory is realized; every step draws
    # nv*m uniforms, also on a graph without edges
    graphs = [graph_from_edges(3, [(0, 1), (2, 3)]), graph_from_edges(3, [])]  # 4,5 / all isolated
    s_a = state_from_member(np.isin(np.arange(6), [0, 4]))
    s_b = state_from_member(np.isin(np.arange(6), [1, 2, 3]))
    for g in graphs:
        for rule in (make_rule_bo3(), make_rule_bo2(), make_rule_best_of(2)):
            r1 = np.random.default_rng(9)
            r2 = np.random.default_rng(9)
            r3 = np.random.default_rng(9)
            step(g, s_a, rule, r1)
            step(g, s_b, rule, r2)
            r3.random((g.num_vertices, rule.draws))
            assert r1.random() == r2.random() == r3.random(), (rule.name, g.num_edges)


def _reference_step_probabilities(g, member, rule):
    # the documented semantics, written with polyval: f1 for opinion-1
    # holders, f2 for the rest, isolated vertices keep their opinion
    deg = np.diff(g.offsets)
    deg_a = np.array(
        [np.count_nonzero(member[g.neighbors[g.offsets[v] : g.offsets[v + 1]]]) for v in range(g.num_vertices)]
    )
    x = deg_a / np.maximum(deg, 1)
    f1 = npoly.polyval(x, rule.f1_coeffs)
    f2 = npoly.polyval(x, rule.f2_coeffs)
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


def test_step_probabilities_match_polyval_reference_bit_for_bit():
    graphs = [_sbm_with_isolated_vertices(), graph_from_edges(3, [])]
    rules = [
        make_rule_bo3(),
        make_rule_bo2(),
        make_rule_best_of(2),
        make_rule_polynomial("asym", [0.1, 0.5, 0.2], [0.05, 0.3, 0.4]),
        make_rule_polynomial("one", [0.4], [0.7]),
        make_rule_polynomial("two", [0.2, 0.5], [0.1, 0.6]),
        make_rule_polynomial("signed_zero", [-0.0, -0.0], [0.0, -0.0]),
    ]
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


def _sample_count(rule):
    # neighbour samples per vertex, parsed from the sampler tag
    return {"bo2": 2, "bo3": 3}.get(rule.sampler) or int(rule.sampler.removeprefix("best_of_"))


def _reference_step_sampling(g, member, rule, rng):
    # the row-layout sampling kernel: an (nv, m) index array, a row sum of the
    # votes, and bo2's adopt-if-both-samples-agree choice written with np.where
    m = _sample_count(rule)
    deg = np.diff(g.offsets)
    safe = np.maximum(deg, 1)
    u = rng.random((g.num_vertices, m))
    if g.neighbors.size == 0:
        return member.copy()
    idx = np.floor(u * safe[:, None]).astype(np.int64)
    np.minimum(idx, (safe - 1)[:, None], out=idx)
    flat = np.minimum(g.offsets[:-1][:, None] + idx, g.neighbors.size - 1)
    ones = member[g.neighbors[flat]].sum(axis=1)
    if rule.sampler == "bo2":
        new = np.where(ones == 2, True, np.where(ones == 0, False, member))
    else:
        new = ones > m // 2
    return np.where(deg == 0, member, new)


def test_largest_uniform_indexes_the_last_neighbour():
    # Generator.random returns multiples of 2^-53 below 1, and a rounded
    # product is monotone in u, so if the largest uniform maps degree d to
    # index d - 1, no uniform maps past the last neighbour
    assert np.nextafter(1.0, 0.0) == 1.0 - 2.0**-53
    deg = np.arange(1, 2**20 + 1, dtype=np.int64)
    assert np.array_equal((np.nextafter(1.0, 0.0) * deg).astype(np.int64), deg - 1)


def test_polynomial_rules_have_no_sampling_step():
    rule = make_rule_polynomial("two", [0.2, 0.5], [0.1, 0.6])
    assert rule.draws == 0
    g = graph_from_edges(1, [(0, 1)])
    with pytest.raises(ValueError, match="no sampler"):
        step_sampling(g, state_from_member([True, False]), rule, np.random.default_rng(0))


def test_step_sampling_matches_reference_bit_for_bit():
    graphs = [_sbm_with_isolated_vertices(), graph_from_edges(3, []), graph_from_edges(1, [(0, 1)])]
    rules = [make_rule_bo2(), make_rule_bo3(), make_rule_best_of(2), make_rule_best_of(12)]
    for g in graphs:
        nv = g.num_vertices
        for rule in rules:
            starts = np.random.default_rng(4)
            got_rng = np.random.Generator(np.random.Philox(21))
            want_rng = np.random.Generator(np.random.Philox(21))
            s = state_from_member(starts.random(nv) < 0.5)
            want = s.member
            for t in range(200):
                s = step_sampling(g, s, rule, got_rng)
                want = _reference_step_sampling(g, want, rule, want_rng)
                assert s.member.dtype == want.dtype and s.member.shape == want.shape
                assert s.member.tobytes() == want.tobytes(), (rule.name, nv, t)
                if s.count1 + s.count2 in (0, nv):
                    # consensus is absorbing: restart both from a fresh state
                    s = state_from_member(starts.random(nv) < 0.5)
                    want = s.member
            assert got_rng.bit_generator.random_raw() == want_rng.bit_generator.random_raw(), (rule.name, nv)


def test_rule_coefficients_are_fixed_at_construction():
    rule = make_rule_bo2()
    with pytest.raises(ValueError):
        rule.f1_coeffs[0] = 0.5  # read-only
    with pytest.raises(ValueError):
        make_rule_polynomial("empty", [], [0.5])
    with pytest.raises(ValueError):
        make_rule_polynomial("nested", [[0.5]], [0.5])
    assert make_rule_polynomial("scalar", 0.5, 0.5).f1_coeffs.tolist() == [0.5]


def test_isolated_vertices_keep_opinion():
    g = graph_from_edges(2, [])
    s = state_from_member(np.array([True, False, True, False]))
    for rule in (make_rule_bo3(), make_rule_bo2(), make_rule_best_of(2)):
        assert np.array_equal(step(g, s, rule, np.random.default_rng(0)).member, s.member)
    assert step_probabilities(g, s, make_rule_bo3()) == pytest.approx([1, 0, 1, 0])


def test_consensus_states_are_absorbing():
    g = generate_sbm(20, 0.5, 0.2, seed=1)
    ones = state_from_member(np.ones(40, dtype=bool))
    zeros = state_from_member(np.zeros(40, dtype=bool))
    for rule in (make_rule_bo3(), make_rule_bo2()):
        assert step(g, ones, rule, np.random.default_rng(0)).count1 == 20
        assert step(g, zeros, rule, np.random.default_rng(0)).count1 == 0


# --- trajectories ---


def test_run_until_consensus_from_full_set_is_immediate():
    g = generate_sbm(15, 0.4, 0.1, seed=0)
    s = state_from_member(np.ones(30, dtype=bool))
    traj = run_until_consensus(g, s, make_rule_bo3(), 10, np.random.default_rng(0))
    assert traj.status == vd.STATUS_CONSENSUS
    assert traj.final_opinion == 1 and traj.t_cons == 0
    assert traj.records == [(0, 1.0, 1.0)]
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
    traj = run_until_consensus(g, s, make_rule_bo3(), 200, np.random.default_rng(2))
    assert traj.status == vd.STATUS_CONSENSUS
    assert len(traj.records) == traj.t_cons + 1
    ts = [row[0] for row in traj.records]
    assert ts == list(range(traj.t_cons + 1))


def test_run_until_consensus_stop_predicate():
    g = generate_sbm(50, 0.3, 0.05, seed=3)
    s = make_initial(g, vd.biased_global(0.3), np.random.default_rng(1))
    rule = make_rule_bo3()
    full = run_until_consensus(g, s, rule, 200, np.random.default_rng(2))
    assert full.t_cons >= 2
    # at t=0
    traj = run_until_consensus(g, s, rule, 200, np.random.default_rng(2), stop=lambda a1, a2: True)
    assert traj.status == vd.STATUS_STOPPED
    assert (traj.steps_run, traj.t_cons, traj.final_opinion) == (0, None, None)
    assert traj.records == full.records[:1]
    # mid-run: the first state with alpha1 above the one after t=0
    bar = full.records[1][1]
    traj = run_until_consensus(
        g, s, rule, 200, np.random.default_rng(2), stop=lambda a1, a2: a1 > bar
    )
    want = next(t for t, a1, _a2 in full.records if a1 > bar)
    assert want > 1
    assert traj.status == vd.STATUS_STOPPED and traj.steps_run == want
    assert traj.records == full.records[: want + 1]
    # stop is checked before consensus, and a consensus state can stop a run
    ones = state_from_member(np.ones(100, dtype=bool))
    traj = run_until_consensus(g, ones, rule, 10, np.random.default_rng(0), stop=lambda a1, a2: a1 == 1.0)
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


# --- CSV ---


def test_trajectory_csv_format():
    g = generate_sbm(40, 0.3, 0.05, seed=6)
    s = make_initial(g, vd.biased_global(0.3), np.random.default_rng(2))
    traj = run_until_consensus(g, s, make_rule_bo3(), 100, np.random.default_rng(3))
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,alpha1,alpha2,delta1,delta2"
    assert lines[-1] == f"# status=consensus opinion={traj.final_opinion} t_cons={traj.t_cons}"
    for t, row in enumerate(lines[1:-1]):
        fields = row.split(",")
        assert int(fields[0]) == t
        a1, a2, d1, d2 = map(float, fields[1:])
        assert d1 == pytest.approx(a1 - a2, abs=1e-8)
        assert d2 == pytest.approx(a1 + a2 - 1, abs=1e-8)


def test_trajectory_csv_timeout_comment():
    g = generate_sbm(20, 0.4, 0.1, seed=1)
    s = make_initial(g, vd.half_half(), np.random.default_rng(0))
    traj = run_until_consensus(g, s, make_rule_bo3(), 0, np.random.default_rng(0))
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
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
