"""Graph generation, serialization, and degree statistics."""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import io
import itertools
import math
import os
from pathlib import Path
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votedyn import (
    Graph,
    VotingRule,
    degree_stats,
    generate_sbm,
    graph_from_edges,
    load_graph,
    save_graph,
    state_from_member,
    step_sampling,
)
from votedyn import sbm_graph
from votedyn.sbm_graph import (
    _block_edges,
    _key_layout,
    _pair_blocks,
)


def edge_set(g: Graph) -> set[tuple[int, int]]:
    out = set()
    for v in range(g.num_vertices):
        for w in g.neighbors[g.offsets[v] : g.offsets[v + 1]]:
            out.add((min(v, int(w)), max(v, int(w))))
    return out


def test_rejects_invalid_parameters():
    with pytest.raises(ValueError, match="q must not exceed p"):
        generate_sbm(10, 0.3, 0.5, seed=0)
    with pytest.raises(ValueError):
        generate_sbm(0, 0.3, 0.1, seed=0)
    with pytest.raises(ValueError):
        generate_sbm(10, 1.5, 0.1, seed=0)
    with pytest.raises(ValueError):
        generate_sbm(10, 0.3, -0.1, seed=0)


@pytest.mark.parametrize(
    "args, name",
    [
        ((3, 0.5, 0.1, 1.7), "seed"),
        ((3, 0.5, 0.1, True), "seed"),
        ((3, 0.5, 0.1, "1"), "seed"),
        ((2.5, 0.5, 0.1, 0), "n"),
        ((3.0, 0.5, 0.1, 0), "n"),
        ((True, 0.5, 0.1, 0), "n"),
    ],
)
def test_rejects_non_integer_n_and_seed(args, name):
    # a float seed used to reach the saved header, which load_graph rejects
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        generate_sbm(*args)
    g = generate_sbm(np.int64(3), 0.5, 0.1, np.uint32(1))
    assert type(g.n) is int and type(g.seed) is int
    assert load_graph(io.StringIO(_saved(g))).seed == 1


def _saved(g: Graph) -> str:
    buf = io.StringIO()
    save_graph(g, buf)
    return buf.getvalue()


def test_same_seed_reproduces_different_seed_varies():
    a = generate_sbm(60, 0.2, 0.05, seed=9)
    b = generate_sbm(60, 0.2, 0.05, seed=9)
    assert np.array_equal(a.neighbors, b.neighbors)
    assert np.array_equal(a.offsets, b.offsets)
    c = generate_sbm(60, 0.2, 0.05, seed=10)
    assert edge_set(a) != edge_set(c)


@given(
    n=st.integers(min_value=1, max_value=25),
    p=st.floats(min_value=0.0, max_value=1.0),
    ratio=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_adjacency_is_simple_and_symmetric(n, p, ratio, seed):
    g = generate_sbm(n, p, ratio * p, seed=seed)
    assert g.num_vertices == 2 * n
    assert g.offsets[0] == 0 and g.offsets[-1] == len(g.neighbors)
    pairs = []
    for v in range(g.num_vertices):
        row = g.neighbors[g.offsets[v] : g.offsets[v + 1]]
        assert np.all(np.diff(row) > 0)  # sorted, no duplicates
        assert v not in row  # no self loops
        pairs.extend((v, int(w)) for w in row)
    assert len(pairs) == 2 * g.num_edges
    assert set(pairs) == {(w, v) for v, w in pairs}


def test_extreme_probabilities():
    g = generate_sbm(6, 1.0, 1.0, seed=0)
    assert g.num_edges == math.comb(12, 2)
    g = generate_sbm(6, 0.0, 0.0, seed=0)
    assert g.num_edges == 0
    g = generate_sbm(6, 1.0, 0.0, seed=0)
    # two intra cliques, no cross edges
    assert g.num_edges == 2 * math.comb(6, 2)
    assert all((a < 6) == (b < 6) for a, b in edge_set(g))


def test_edge_counts_track_expectation():
    # each block's edge count is binomial over its pairs; 6 sigma two-sided
    # bound per block
    n, p, q = 500, 0.2, 0.05
    g = generate_sbm(n, p, q, seed=4)
    intra = sum(1 for a, b in edge_set(g) if (a < n) == (b < n))
    cross = g.num_edges - intra
    m_intra = 2 * math.comb(n, 2) * p
    s_intra = math.sqrt(2 * math.comb(n, 2) * p * (1 - p))
    m_cross = n * n * q
    s_cross = math.sqrt(n * n * q * (1 - q))
    assert abs(intra - m_intra) < 6 * s_intra
    assert abs(cross - m_cross) < 6 * s_cross


def test_pair_frequencies_track_probabilities():
    # same (n,p,q) across seeds: per-pair inclusion frequencies of the
    # geometric-skip sampler must track p and q
    n, p, q, reps = 16, 0.35, 0.15, 400
    hit_intra = 0
    hit_cross = 0
    for seed in range(reps):
        g = generate_sbm(n, p, q, seed=seed)
        for a, b in edge_set(g):
            if (a < n) == (b < n):
                hit_intra += 1
            else:
                hit_cross += 1
    n_intra = reps * 2 * math.comb(n, 2)
    n_cross = reps * n * n
    f_intra = hit_intra / n_intra
    f_cross = hit_cross / n_cross
    assert abs(f_intra - p) < 5 * math.sqrt(p * (1 - p) / n_intra)
    assert abs(f_cross - q) < 5 * math.sqrt(q * (1 - q) / n_cross)


@pytest.mark.parametrize(
    "n, p, q",
    [
        (2001, 0.001, 1e-18),
        (2001, 0.001, 1e-300),
        (5, 0.5, 5e-324),
        (5, 5e-324, 5e-324),
        (5, 5e-324, 0.0),
    ],
)
def test_tiny_probabilities_keep_the_sampler_in_range(n, p, q):
    # the geometric gap log(1-u)/log(1-q) passes 2**63 (or overflows the
    # divide) when q is tiny; that must neither corrupt the graph nor warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = generate_sbm(n, p, q, seed=0)
    assert g.offsets[0] == 0 and g.offsets[-1] == g.neighbors.size
    assert np.all(np.diff(g.offsets) >= 0)
    assert all((a < n) == (b < n) for a, b in edge_set(g))
    if p < 1e-300:
        assert g.num_edges == 0


def _whole_chunk_hits(rng: np.random.Generator, m: int, prob: float) -> np.ndarray:
    # the geometric-skip sampler drawing each chunk of int((m - pos) * prob *
    # 1.1) + 64 uniforms at once, the reference for the sampled pair indices
    # and for the generator's position after each block
    if m == 0 or prob <= 0.0:
        return np.empty(0, dtype=np.int64)
    if prob >= 1.0:
        return np.arange(m)
    log_skip = math.log1p(-prob)
    chunks, pos = [], -1
    while pos < m:
        u = rng.random(int((m - pos) * prob * 1.1) + 64)
        gaps = np.floor(np.maximum(np.log1p(-u), (m + 1) * log_skip) / log_skip).astype(np.int64)
        hits = np.cumsum(gaps + 1) + pos
        pos = int(hits[-1])
        chunks.append(hits[hits < m])
    return np.concatenate(chunks)


def _position(rng: np.random.Generator) -> tuple:
    state = rng.bit_generator.state
    return (
        state["state"]["counter"].tolist(),
        state["state"]["key"].tolist(),
        state["buffer"].tolist(),
        state["buffer_pos"],
    )


def _whole_chunk_positions(n: int, p: float, q: float, seed: int) -> list[tuple]:
    # the generator's position after each of generate_sbm's three blocks
    rng = np.random.Generator(np.random.Philox(key=seed))
    positions = []
    for m, prob in ((math.comb(n, 2), p), (math.comb(n, 2), p), (n * n, q)):
        _whole_chunk_hits(rng, m, prob)
        positions.append(_position(rng))
    return positions


def _edge_array(g: Graph) -> np.ndarray:
    src = np.repeat(np.arange(g.num_vertices), g.degrees)
    keep = src < g.neighbors
    return np.stack((src[keep], g.neighbors[keep]), axis=1)


def _rebuilt(g: Graph) -> list[Graph]:
    # g built again through graph_from_edges and through a save/load round trip
    text = io.StringIO()
    save_graph(g, text)
    text.seek(0)
    return [graph_from_edges(g.n, _edge_array(g), p=g.p, q=g.q, seed=g.seed), load_graph(text)]


def _assert_layout(g: Graph) -> None:
    # int64 offsets, and neighbor ids at the width of the keys that built them
    assert g.offsets.dtype == np.int64 and g.neighbors.dtype == _key_layout(2 * g.n)[1]
    assert not g.offsets.flags.writeable and not g.neighbors.flags.writeable


# sha256 over the int64 bytes of offsets, then neighbors
CSR_DIGESTS = [
    ((1, 1.0, 1.0, 0), "c8b9af456571329ad39419553d14c5af97f36474bd52d2920a364e990801d5f0"),
    ((2, 0.9, 0.4, 1), "20380aa5ff181568c69a1bbc37e63b7344bd8b028fd7b8fe5b4d976d21c50953"),
    ((30, 0.4, 0.1, 3), "61f177c368dca8790de3316839fae608e9f8b71670dcf0c53b8428ca0c021a63"),
    ((1000, 0.05, 0.01, 2), "a417b063fa7ec1cb09fa137b7789cec524544b51ae8f176fd31544914b120c58"),
]


@pytest.mark.parametrize("args, digest", CSR_DIGESTS)
def test_csr_arrays_are_pinned(args, digest):
    g = generate_sbm(*args)
    for built in [g, *_rebuilt(g)]:
        _assert_layout(built)
        h = hashlib.sha256()
        for arr in (built.offsets, built.neighbors):
            h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
        assert h.hexdigest() == digest


def test_row_lookup_enumerates_every_pair():
    # each block's row lookup maps pair index k to the k-th pair in
    # lexicographic order: (i, j), i < j, within a community, and
    # divmod(k, n) offset into community 2 across
    for n in (1, 2, 50):
        intra = list(itertools.combinations(range(n), 2))
        for block, base in zip(_pair_blocks(n)[:2], (0, n)):
            u, v = _block_edges(np.arange(len(intra), dtype=np.int64), *block, np.int64)
            assert list(zip(u.tolist(), v.tolist())) == [(i + base, j + base) for i, j in intra]
    cross = _pair_blocks(7)[2]
    k = np.arange(49, dtype=np.int64)
    u, v = _block_edges(k, *cross, np.int32)
    assert u.tolist() == (k // 7).tolist() and (v - 7).tolist() == (k % 7).tolist()


@pytest.mark.parametrize("n, width", [(16384, np.int32), (16385, np.int64)])
def test_both_key_widths_build_the_same_csr(n, width):
    # the widest graph with int32 keys and the narrowest with int64 keys,
    # against a CSR built by lexsort from the whole-chunk sampler's pairs,
    # unranked by bisection
    assert _key_layout(2 * n)[1] is width
    p, seed = 1e-4, 6
    g = generate_sbm(n, p, p, seed=seed)
    rng = np.random.Generator(np.random.Philox(key=seed))
    starts = [i * (2 * n - 1 - i) // 2 for i in range(n + 1)]
    pairs = []
    for base in (0, n):
        for k in _whole_chunk_hits(rng, math.comb(n, 2), p).tolist():
            i = bisect.bisect_right(starts, k) - 1
            pairs.append((base + i, base + k - starts[i] + i + 1))
    for k in _whole_chunk_hits(rng, n * n, p).tolist():
        pairs.append((k // n, n + k % n))
    u, v = np.array(pairs, dtype=np.int64).T
    src, dst = np.concatenate((u, v)), np.concatenate((v, u))
    order = np.lexsort((dst, src))
    offsets = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=2 * n))))
    for built in [g, *_rebuilt(g)]:
        _assert_layout(built)
        assert np.array_equal(built.offsets, offsets)
        assert np.array_equal(built.neighbors, dst[order])


def test_a_small_build_allocates_what_it_holds():
    # a neighbor array below one BUILD_BLOCK grows to exactly its size: the
    # 4-vertex graph holds 8 B of neighbors, and its first growth used to
    # take a whole block, a 264,721 B peak
    generate_sbm(2, 0.5, 0.5, seed=3)
    tracemalloc.start()
    try:
        g = generate_sbm(2, 0.5, 0.5, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.neighbors.nbytes == 8
    assert peak < 16_384, peak


def test_graph_size_caps_hold_before_anything_is_allocated(monkeypatch):
    # n and the directed entries have caps that do not depend on the host:
    # an oversized n, or an expected entry count past the cap, fails before
    # any array is made, and the neighbor array refuses to grow past the
    # entry cap
    big = sbm_graph.MAX_N + 1
    builds = [
        lambda: generate_sbm(big, 0.0, 0.0, seed=0),
        lambda: generate_sbm(10**5, 0.5, 0.0, seed=0),
        lambda: graph_from_edges(big, []),
        lambda: load_graph(io.StringIO(f"sbm {big} 0.5 0.1 0\n0 1\n")),
    ]
    tracemalloc.start()
    try:
        for build in builds:
            with pytest.raises(ValueError, match=f"n must be at most {big - 1}|at most 2147483648 directed"):
                build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    # 904 directed entries where 876 are expected
    g = generate_sbm(30, 0.4, 0.1, seed=1)
    text = io.StringIO()
    save_graph(g, text)
    monkeypatch.setattr(sbm_graph, "MAX_ENTRIES", g.neighbors.size - 2)
    for build in [
        lambda: generate_sbm(30, 0.4, 0.1, seed=1),
        lambda: graph_from_edges(30, _edge_array(g)),
        lambda: load_graph(io.StringIO(text.getvalue())),
    ]:
        with pytest.raises(ValueError, match=f"at most {g.neighbors.size - 2} directed entries"):
            build()
    monkeypatch.setattr(sbm_graph, "MAX_ENTRIES", g.neighbors.size)
    for h in _rebuilt(g) + [generate_sbm(30, 0.4, 0.1, seed=1)]:
        assert np.array_equal(h.neighbors, g.neighbors)


def test_graph_from_edges_round_trip():
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    g = graph_from_edges(2, edges, p=0.5, q=0.5, seed=3)
    assert edge_set(g) == {(0, 1), (1, 2), (2, 3), (0, 3)}
    assert g.degrees.tolist() == [2, 2, 2, 2]
    with pytest.raises(ValueError):
        graph_from_edges(2, [(0, 0)])
    with pytest.raises(ValueError):
        graph_from_edges(2, [(0, 4)])
    for bad in ([(0, 1), (1, 0)], [(2, 3), (2, 3)]):
        with pytest.raises(ValueError, match="duplicate"):
            graph_from_edges(2, bad)
    with pytest.raises(ValueError, match="two integer"):
        graph_from_edges(2, np.array([[0, 1, 2], [1, 2, 3]]))
    # any array-like of pairs, and an empty edge list
    g = graph_from_edges(2, np.array(edges))
    assert edge_set(g) == {(0, 1), (1, 2), (2, 3), (0, 3)}
    assert graph_from_edges(2, np.empty((0, 2), dtype=np.int64)).num_edges == 0


@pytest.mark.parametrize(
    "n, p, q, match",
    [
        (0, 0.0, 0.0, "n must be a positive"),
        (-2, 0.0, 0.0, "n must be a positive"),
        (2, 0.7, 0.9, "q must not exceed p"),
    ],
)
def test_graph_from_edges_checks_n_p_q_like_generate_sbm(n, p, q, match):
    # each of these used to build a graph: the first two saved text that
    # load_graph rejects, and n = -2 gave empty offsets
    with pytest.raises(ValueError, match=match):
        graph_from_edges(n, [], p=p, q=q)
    with pytest.raises(ValueError, match=match):
        load_graph(io.StringIO(f"sbm {n} {p} {q} 0\n"))


@pytest.mark.parametrize(
    "edges",
    [
        [(0.5, 1)],
        [("1", "2")],
        [(True, 3)],
        [(np.True_, 3)],
        np.array([[0.0, 1.0]]),
        np.array([[True, False]]),
        np.array([[0, 1]], dtype=object),
    ],
)
def test_graph_from_edges_takes_only_integer_ids(edges):
    with pytest.raises(ValueError, match="two integer"):
        graph_from_edges(2, edges)
    for ok in ([], np.empty((0, 2)), np.array([[0, 3]], dtype=np.uint8), [(np.int32(0), 3)]):
        assert graph_from_edges(2, ok).num_edges == len(ok)


@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32, np.int64])
def test_graph_from_edges_computes_keys_at_the_key_width(dtype):
    # 200 vertices: s = 8, so a key shifted at int16 overflows and one at
    # uint8 drops the high id, which reads as a self loop; either way round,
    # the pairs give the sampled graph's CSR
    g = generate_sbm(100, 0.1, 0.05, seed=3)
    edges = _edge_array(g)
    assert edges.max() <= np.iinfo(dtype).max
    for pairs in (edges, edges[::-1, ::-1]):
        got = graph_from_edges(g.n, pairs.astype(dtype), p=g.p, q=g.q, seed=g.seed)
        assert np.array_equal(got.offsets, g.offsets) and np.array_equal(got.neighbors, g.neighbors)
        assert got.neighbors.dtype == np.int32


def test_save_load_round_trip_exact():
    g = generate_sbm(40, 0.3, 0.1, seed=12)
    buf = io.StringIO()
    save_graph(g, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "sbm 40 0.3 0.1 12"
    g2 = load_graph(io.StringIO(text))
    assert g2.n == g.n and g2.p == g.p and g2.q == g.q and g2.seed == g.seed
    assert np.array_equal(g2.neighbors, g.neighbors)
    assert np.array_equal(g2.offsets, g.offsets)


def _expected_text(g: Graph) -> str:
    # the format spelled out line by line, one u < v pair at a time
    pairs = sorted(edge_set(g))
    body = "".join(f"{u} {v}\n" for u, v in pairs)
    return f"sbm {g.n} {g.p!r} {g.q!r} {g.seed}\n" + body


@pytest.mark.parametrize("n", [5, 50, 500])
def test_save_text_matches_line_by_line_format(n):
    # nv = 10, 100, 1000: the largest id is the last one of its digit width,
    # and ids on both sides of every width change carry edges
    nv = 2 * n
    marks = [k for k in (1, 10, 100) if k < nv]
    edges = {(0, nv - 1), (nv - 2, nv - 1)}
    edges |= {(k - 1, k) for k in marks}
    edges |= {(k, nv - 1) for k in marks}
    for g in (graph_from_edges(n, sorted(edges), p=0.5, q=0.1, seed=3),
              generate_sbm(n, 0.2, 0.05, seed=n)):
        text = _saved(g)
        assert text == _expected_text(g)
        g2 = load_graph(io.StringIO(text))
        assert np.array_equal(g2.offsets, g.offsets)
        assert np.array_equal(g2.neighbors, g.neighbors)


def test_save_text_without_edges_and_with_isolated_last_vertex():
    for g in (graph_from_edges(1, []), graph_from_edges(3, []),
              graph_from_edges(3, [(0, 1), (2, 4)])):
        text = _saved(g)
        assert text == _expected_text(g)
        g2 = load_graph(io.StringIO(text))
        assert edge_set(g2) == edge_set(g) and g2.num_vertices == g.num_vertices


def test_save_load_paths(tmp_path):
    g = generate_sbm(25, 0.4, 0.2, seed=5)
    path = tmp_path / "g.txt"
    save_graph(g, path)
    g2 = load_graph(path)
    assert edge_set(g2) == edge_set(g)


def test_load_rejects_malformed_input():
    with pytest.raises(ValueError):
        load_graph(io.StringIO("not a header\n0 1\n"))
    bodies = [
        ("0 9\n", "out of range"),
        ("1 1\n", "self loops"),
        ("0 1\n1 0\n", "duplicate"),  # either orientation
        ("0 1\n0 1\n", "duplicate"),
        ("0 1 2\n", "two integer"),  # three tokens
        ("0\n", "two integer"),  # one token
        ("1 2 3\n4\n", "two integer"),
        ("0 x\n", "two integer"),  # not an integer
        ("1.5 2\n", "two integer"),
        ("# comment\n0 1\n", "two integer"),
        # signs and exponents are not coerced: loadtxt read `-0 1` as (0, 1)
        ("-0 1\n", "two integer"),
        ("+1 2\n", "two integer"),
        ("1e3 2\n", "two integer"),
        ("1" * 25 + " 2\n", "out of range"),
        ("\uff11 2\n", "two integer"),  # a fullwidth digit one
        ("0 1\x00\n", "two integer"),
        ("0\x001\n", "two integer"),
    ]
    for body, match in bodies:
        with pytest.raises(ValueError, match=match):
            load_graph(io.StringIO("sbm 2 0.5 0.1 0\n" + body))


@given(
    st.floats(0.0, 1.0, allow_subnormal=True),
    st.floats(0.0, 1.0, allow_subnormal=True),
    st.integers(-(2**63), 2**63 - 1),
)
@settings(max_examples=200, deadline=None)
def test_header_round_trips_every_p_q_and_seed(x, y, seed):
    p, q = max(x, y), min(x, y)
    for pp, qq in ((p, q), (np.float64(p), np.float32(q) if float(np.float32(q)) <= p else q)):
        g = graph_from_edges(2, [(0, 1)], p=pp, q=qq, seed=seed)
        assert type(g.p) is float and type(g.q) is float
        g2 = load_graph(io.StringIO(_saved(g)))
        assert (g2.p, g2.q, g2.seed) == (g.p, g.q, g.seed)


def test_numpy_probabilities_save_a_readable_header():
    # np.float64(0.5) used to reach the header as `np.float64(0.5)`
    g = generate_sbm(3, np.float64(0.5), np.float32(0.125), 1)
    assert _saved(g).splitlines()[0] == "sbm 3 0.5 0.125 1"
    assert load_graph(io.StringIO(_saved(g))).p == 0.5


@pytest.mark.parametrize(
    "header",
    [
        "sbm +2 0.5 0.1 0",
        "sbm 1_0 0.5 0.1 0",  # int() read this as n = 10
        "sbm \uff12 0.5 0.1 0",  # a fullwidth digit two
        "sbm 2 0.5_0 0.1 0",
        "sbm 2 +0.5 0.1 0",
        "sbm 2 .5 0.1 0",
        "sbm 2 0.5 0.1 +3",
        "sbm 2 0.5 0.1 3.0",
        "sbm 2 nan 0.1 0",
        "sbm 2 0.5 0.1",
        "sbm 2 0.5 0.1 0 0",
        " sbm 2 0.5 0.1 0",
        "SBM 2 0.5 0.1 0",
    ],
)
def test_load_rejects_headers_outside_the_grammar(header):
    with pytest.raises(ValueError, match="bad header"):
        load_graph(io.StringIO(header + "\n0 1\n"))


def test_load_accepts_the_header_grammar():
    for header, want in [
        ("sbm 2 0.5 0.1 0", (2, 0.5, 0.1, 0)),
        ("sbm 2 1 0 -7", (2, 1.0, 0.0, -7)),
        ("sbm 02 5E-1 1e-05 3\r", (2, 0.5, 1e-05, 3)),
        ("sbm\t2 \t1. 2.5e-3  9 ", (2, 1.0, 0.0025, 9)),
    ]:
        g = load_graph(io.StringIO(header + "\n0 1\n"))
        assert (g.n, g.p, g.q, g.seed) == want


def test_load_accepts_blank_lines_and_no_edges():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = load_graph(io.StringIO("sbm 2 0.5 0.1 0\n"))
    assert g.num_edges == 0 and g.offsets.tolist() == [0] * 5
    g = load_graph(io.StringIO("sbm 2 0.5 0.1 0\n0 1\n\n2 3\n"))
    assert edge_set(g) == {(0, 1), (2, 3)}


@pytest.mark.parametrize(
    "text, match",
    [
        ("sbm 2 0.5 0.5 0\n0 1\r2 3\n", "two integer"),
        ("sbm 2 0.5 0.5 0\n0 1 \r 2 3\n", "two integer"),
        # a carriage return does not end the header either
        ("sbm 2 0.5 0.5 0\r0 1\n2 3\n", "bad header"),
    ],
)
def test_load_keeps_a_lone_carriage_return_a_blank(tmp_path, text, match):
    # a path is read as a text handle reads the same text: a lone carriage
    # return is a blank, so neither body line holds exactly two ids, and it
    # does not end the header
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode("ascii"))
    for source in (path, str(path), io.StringIO(text)):
        with pytest.raises(ValueError, match=match):
            load_graph(source)


def test_load_reads_crlf_files_from_a_path(tmp_path):
    path = tmp_path / "g.txt"
    path.write_bytes(b"sbm 2 0.5 0.5 0\r\n0 1\r\n\r\n2 3\r\n")
    g = load_graph(path)
    assert (g.n, g.p, g.q, g.seed) == (2, 0.5, 0.5, 0) and edge_set(g) == {(0, 1), (2, 3)}


class _Unseekable(io.StringIO):
    def seekable(self):
        return False


def test_load_sizes_the_neighbor_array_from_a_seekable_source(monkeypatch):
    # a seekable source is counted first, two entries per line and per
    # vertex pair at most, and the count leaves the position where the edges
    # start; a source that cannot seek grows the array block by block, here
    # in steps of 8 entries, and both give the saved graph
    g = generate_sbm(30, 0.3, 0.1, seed=2)
    text = _saved(g)
    fh = io.StringIO(text)
    fh.readline()
    start = fh.tell()
    assert sbm_graph._entry_bound(fh, g.num_vertices) == 2 * (g.num_edges + 1)
    assert fh.tell() == start
    assert sbm_graph._entry_bound(_Unseekable(text), g.num_vertices) == 0
    assert sbm_graph._entry_bound(io.StringIO("\n" * 100), 4) == 12
    monkeypatch.setattr(sbm_graph, "BUILD_BLOCK", 8)
    for source in (io.StringIO(text), _Unseekable(text)):
        got = load_graph(source)
        assert np.array_equal(got.offsets, g.offsets) and np.array_equal(got.neighbors, g.neighbors)


class _Writes(io.StringIO):
    # records the size of every write
    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(text.count("\n"))
        return super().write(text)


@pytest.mark.parametrize(
    "g",
    [
        # vertex 0 has degree 7, more than a block
        graph_from_edges(4, [(0, v) for v in range(1, 8)] + [(2, 5), (6, 7)]),
        generate_sbm(20, 0.5, 0.1, seed=4),
        graph_from_edges(3, []),
        graph_from_edges(3, [(0, 1), (2, 4)]),  # the last vertex is isolated
    ],
)
def test_writer_blocks_give_the_line_by_line_text(monkeypatch, g):
    monkeypatch.setattr(sbm_graph, "WRITE_BLOCK", 3)
    out = _Writes()
    save_graph(g, out)
    assert out.getvalue() == _expected_text(g)
    # the header, then one write per block: each block is the longest run of
    # vertices with at most 3 directed entries in all, or one vertex of
    # larger degree
    offsets, nv = g.offsets.tolist(), g.num_vertices
    lines, lo = [], 0
    while lo < nv:
        hi = lo + 1
        while hi < nv and offsets[hi + 1] - offsets[lo] <= 3:
            hi += 1
        lines.append(sum(1 for u, v in edge_set(g) if lo <= u < hi))
        lo = hi
    assert out.sizes == [1, *lines]


def _line_by_line(body: str) -> set[tuple[int, int]]:
    # the reader's grammar, one line at a time
    pairs = set()
    for line in body.split("\n"):
        ids = [int(t) for t in line.replace("\t", " ").replace("\r", " ").split(" ") if t]
        assert len(ids) in (0, 2)
        if ids:
            pairs.add((min(ids), max(ids)))
    return pairs


@pytest.mark.parametrize("block", [1, 2, 3, 5, 8, 64])
@pytest.mark.parametrize(
    "body",
    [
        "0 1\n2 3\n10 11\n4 5\n6 7\n",  # lines straddle block boundaries
        "0 1\r\n2 3\r\n10 11\r\n",
        "0\t1\n2 \t 3\n\t10\t11\t\n",
        "0 1\n\n\n2 3\n\n4 5\n\n",  # blank lines fall on boundaries
        "0 1\n2 3\n10 11",  # no newline after the last line
        "\n\n0 1",
        "",  # header only
    ],
)
def test_reader_blocks_give_the_line_by_line_edges(monkeypatch, body, block):
    monkeypatch.setattr(sbm_graph, "READ_BLOCK", block)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = load_graph(io.StringIO("sbm 6 0.5 0.1 0\n" + body))
    assert edge_set(g) == _line_by_line(body)


@pytest.mark.parametrize("block", [1, 2, 3, 5, 64])
@pytest.mark.parametrize("body", ["0 1 2\n", "0\n1\n", "0 1\n2", "0 1\n2 3 4", "0 1\n 5\n"])
def test_reader_blocks_reject_split_bad_lines(monkeypatch, body, block):
    # a block boundary inside a bad line neither hides it nor joins it to
    # its neighbour
    monkeypatch.setattr(sbm_graph, "READ_BLOCK", block)
    with pytest.raises(ValueError, match="two integer"):
        load_graph(io.StringIO("sbm 6 0.5 0.1 0\n" + body))


_ALPHABET = ["0", "1", "5", "11", "12", " ", "\t", "\r", "\n", "-", "+", "x", "."]


@settings(max_examples=300, deadline=None)
@given(
    body=st.lists(st.sampled_from(_ALPHABET), max_size=24).map("".join),
    block=st.integers(1, 12),
)
def test_reader_matches_the_line_grammar(body, block):
    # any body over a small alphabet: the block reader accepts it exactly
    # when every line is blank or two ids in range, and then gives the same
    # graph as graph_from_edges on the line-by-line pairs
    lines = [line.replace("\t", " ").replace("\r", " ").split(" ") for line in body.split("\n")]
    tokens = [[t for t in line if t] for line in lines]
    valid = all(len(t) in (0, 2) and all(x.isdigit() for x in t) for t in tokens)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sbm_graph, "READ_BLOCK", block)
        try:
            got = load_graph(io.StringIO("sbm 6 0.5 0.1 0\n" + body))
        except ValueError as exc:
            got = exc
    if not valid:
        # an earlier block may fail the range check first
        assert isinstance(got, ValueError)
        in_range = all(int(x) < 12 for t in tokens for x in t if x.isdigit())
        assert "two integer" in str(got) or not in_range and "out of range" in str(got)
        return
    pairs = [[int(x) for x in t] for t in tokens if t]
    if any(x >= 12 for pair in pairs for x in pair):
        # however long the id
        assert isinstance(got, ValueError) and "out of range" in str(got)
        return
    try:
        want = graph_from_edges(6, pairs, p=0.5, q=0.1)
    except ValueError as exc:
        assert isinstance(got, ValueError) and str(got) == str(exc)
        return
    assert np.array_equal(got.offsets, want.offsets)
    assert np.array_equal(got.neighbors, want.neighbors)


def test_save_and_load_peaks_stay_within_the_graph_size(tmp_path):
    # the writer and the reader work in fixed-size blocks, so neither holds
    # the whole file's text, and the reader's id pairs are written into the
    # graph's own neighbor array block by block; with the whole text they
    # peaked at 2.9x and 3.0x, and with all id pairs joined before the keys
    # were written the load peaked at 2.0x. The bounds are per directed
    # entry at 8 B, plus the offsets: with int64 neighbor ids the load
    # peaked at 1.51x that, and with ids at the int32 key width at 1.02x;
    # grown in fixed steps it peaked at 1.01x, grown by half its size at
    # 1.21x, and read in blocks of 2^16 characters, not 2^18, it peaks at
    # 0.64x. The sampler draws and sums in fixed slices, and its pair
    # indices become the neighbor array: generate peaked at 0.96x while each
    # block's indices and whole draw chunks were arrays of their own, and
    # peaks at 0.71x. A first build imports numpy.random, which is not counted
    generate_sbm(2, 0.5, 0.5, seed=1)
    tracemalloc.start()
    try:
        g = generate_sbm(1000, 0.3, 0.09, seed=1)
        generate_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = 8 * g.neighbors.size + g.offsets.nbytes
    path = tmp_path / "g.txt"
    tracemalloc.start()
    try:
        save_graph(g, path)
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        g2 = load_graph(path)
        load_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert generate_peak <= 0.8 * size, generate_peak / size
    assert save_peak <= 0.75 * size, save_peak / size
    assert load_peak <= 1.15 * size, load_peak / size
    assert np.array_equal(g2.offsets, g.offsets)
    assert np.array_equal(g2.neighbors, g.neighbors)


_PEAK_GROWTH = """
import sys
from votedyn import generate_sbm, load_graph, save_graph

def peak():
    # the peak resident set of this process image alone, in bytes
    with open("/proc/self/status") as fh:
        return 1024 * next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

# "wide" samples a graph with int64 keys, "deviation" the dense graph of
# the benchmark's deviation workload
SAMPLED = {"generate": (2000, 0.3, 0.09), "wide": (20000, 0.005, 0.002), "deviation": (4000, 0.3, 0.09)}
mode, path = sys.argv[1:]
before = peak()
g = load_graph(path) if mode == "load" else generate_sbm(*SAMPLED[mode], seed=1)
print((peak() - before) / g.num_edges)
if mode == "generate":
    save_graph(g, path)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads the Linux VmHWM figure")
def test_build_peak_rss_per_edge(tmp_path):
    # each build runs in a fresh process and reports how far it raised the
    # peak resident set, per undirected edge. tracemalloc cannot gate this,
    # as it counts an array when it is allocated, not as its pages are
    # touched, and memory freed to the heap stays resident; nor can the
    # child's ru_maxrss, which starts at this process's peak, inherited
    # through exec. With the keys and their widened copy held at once,
    # generate grew by 28.2 B and load by 44.0 B per edge; with the int32
    # keys widened into an int64 neighbor array, by 21.0 B and 19.9 B, and
    # with the keys kept as the neighbor array, by 18.6 B and 19.9 B, the
    # int64-key build at n = 20000 by 25.8 B and the dense n = 4000 one by
    # 16.9 B. Each freed whole draw chunk raised glibc's mmap threshold, so
    # later arrays came from a heap that kept its freed pages. Sampled and
    # parsed straight into the neighbor array, in fixed slices, they grew by
    # 11.2, 12.0, 18.5 and 8.8 B. Read in blocks of 2^16 characters, not
    # 2^18, whose parse temporaries took several MiB, the four grow by 10.6,
    # 9.1, 18.3 and 8.7 B.
    env = {**os.environ, "PYTHONPATH": str(Path(sbm_graph.__file__).resolve().parents[1])}
    path = str(tmp_path / "g.txt")

    def growth(mode: str) -> float:
        cmd = [sys.executable, "-c", _PEAK_GROWTH, mode, path]
        return float(subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout)

    assert growth("generate") <= 12
    assert growth("load") <= 10
    assert growth("wide") <= 19.5
    assert growth("deviation") <= 10


# the widest int32-keyed and narrowest int64-keyed samples, a graph with
# both kinds of sampled block, one whose intra-community blocks have p = 1
# and one whose cross block has q = 0
SAMPLED_BUILDS = [
    (16384, 2e-5, 1e-5, 7),
    (16385, 2e-5, 1e-5, 7),
    (40, 0.3, 0.1, 2),
    (30, 1.0, 0.2, 5),
    (30, 0.4, 0.0, 5),
]


def _builds() -> list[Graph]:
    # the sampled graphs and a graph whose last vertex is isolated, each also
    # through graph_from_edges and a save/load round trip
    graphs = [generate_sbm(*args) for args in SAMPLED_BUILDS]
    graphs.append(graph_from_edges(3, [(0, 1), (2, 4), (1, 2), (0, 3)]))
    for g in list(graphs):
        graphs += _rebuilt(g)
    return graphs


@pytest.mark.parametrize("block", [1, 3, 64])
def test_build_blocks_give_the_same_csr(monkeypatch, block):
    # slices of a few draws, the array's growth steps, the sampler's row
    # groups, the key conversion and the duplicate check in blocks of a few
    # entries, against the default block size, which builds these graphs in
    # one block. After each sampled block the generator must stand where the
    # whole-chunk sampler left it, so skipping a chunk's draws past the cut
    # keeps the stream
    want = _builds()
    assert all(h.neighbors.size <= sbm_graph.BUILD_BLOCK for h in want)
    monkeypatch.setattr(sbm_graph, "BUILD_BLOCK", block)
    positions = []
    sample = sbm_graph._sample_pairs

    def sample_and_record(rng, *args):
        end = sample(rng, *args)
        positions.append(_position(rng))
        return end

    monkeypatch.setattr(sbm_graph, "_sample_pairs", sample_and_record)
    got = _builds()
    for g, h in zip(got, want, strict=True):
        assert np.array_equal(g.offsets, h.offsets)
        assert np.array_equal(g.neighbors, h.neighbors)
        _assert_layout(g)
    assert positions == [pos for args in SAMPLED_BUILDS for pos in _whole_chunk_positions(*args)]


def test_degree_stats_matches_direct_recount():
    n, p, q = 120, 0.25, 0.1
    g = generate_sbm(n, p, q, seed=8)
    stats = degree_stats(g)
    deg = g.degrees
    assert stats.min_deg == int(deg.min())
    assert stats.max_deg == int(deg.max())
    assert stats.mean_deg == pytest.approx(float(deg.mean()))
    # deviations measured from the target degree n(p+q)
    assert stats.max_abs_dev == pytest.approx(float(np.abs(deg - n * (p + q)).max()))
    assert stats.normalized_dev == pytest.approx(
        stats.max_abs_dev / math.sqrt(n * p * math.log(n))
    )


def test_degree_stats_tiny_exact_cases():
    # n=1, p=1, q=1: a single cross edge, both degrees 1, target 2
    g = generate_sbm(1, 1.0, 1.0, seed=0)
    stats = degree_stats(g)
    assert (stats.min_deg, stats.max_deg, stats.mean_deg) == (1, 1, 1.0)
    assert stats.max_abs_dev == 1.0
    # n=2, p=1, q=0: two disjoint intra edges, all degrees 1, target 2
    g = generate_sbm(2, 1.0, 0.0, seed=0)
    stats = degree_stats(g)
    assert (stats.min_deg, stats.max_deg, stats.mean_deg) == (1, 1, 1.0)
    assert stats.max_abs_dev == 1.0


def test_degree_normalized_dev_is_small_at_scale():
    g = generate_sbm(1000, 0.3, 0.1, seed=3)
    assert degree_stats(g).normalized_dev <= 4.0


def _without(g: Graph, cut: set[int]) -> Graph:
    # g with every edge at a vertex of cut removed, leaving those isolated
    edges = _edge_array(g)
    return graph_from_edges(g.n, edges[~np.isin(edges, list(cut)).any(axis=1)])


def _check_count_in(g: Graph, rng: np.random.Generator) -> None:
    # Graph.count_in against a per-vertex count of an empty, a full and a
    # random mask
    nv = g.num_vertices
    neighbors = g.neighbors.tolist()
    for mask in (np.zeros(nv, dtype=bool), np.ones(nv, dtype=bool), rng.random(nv) < 0.3):
        bits = mask.tolist()
        expect = [sum(bits[w] for w in neighbors[g.offsets[v] : g.offsets[v + 1]]) for v in range(nv)]
        count = g.count_in(mask)
        assert count.dtype == np.int32 and count.tolist() == expect


def test_deg_in_set_matches_brute_force(monkeypatch):
    # Graph.count_in against a per-vertex count, with isolated vertices in the
    # middle and at the end, and on a graph with no edges. The two dense
    # graphs, of 320 and 330 vertices, count on packed rows; with blocks of
    # 100 or 5 entries every graph with at least that many and 2 per row word
    # does, its rows built and counted in many blocks. The sparse graph of 200
    # vertices gathers, in vertex blocks of about 100 entries, or of one
    # vertex each when a degree passes 5. A one-block graph counts in the one
    # block, here also with isolated vertices first, in the middle and last
    layouts = {
        sbm_graph.BUILD_BLOCK: [False, False, False, True, True, False],
        100: [True, True, False, True, True, False],
        5: [True, True, False, True, True, False],
    }
    for block, packed in layouts.items():
        monkeypatch.setattr(sbm_graph, "BUILD_BLOCK", block)
        base = generate_sbm(30, 0.3, 0.15, seed=2)
        graphs = [base, _without(base, {13, 59}), graph_from_edges(3, [])]
        graphs += [_without(generate_sbm(n, 0.9, 0.9, seed=n), {n // 2 + 1, 2 * n - 1}) for n in (160, 165)]
        graphs.append(_without(generate_sbm(100, 0.05, 0.02, seed=4), {0, 57, 58, 199}))
        assert [g._packed for g in graphs] == packed
        assert np.flatnonzero(graphs[1].degrees == 0).tolist() == [13, 59]
        assert [np.flatnonzero(g.degrees == 0).tolist() for g in graphs[3:5]] == [[81, 319], [83, 329]]
        assert {0, 57, 58, 199} <= set(graphs[5].isolated.tolist()) and graphs[5].neighbors.size > 10 * 100
        rng = np.random.default_rng(0)
        for g in graphs:
            _check_count_in(g, rng)
    monkeypatch.setattr(sbm_graph, "BUILD_BLOCK", next(iter(layouts)))
    g = _without(generate_sbm(30, 0.3, 0.15, seed=2), {0, 29, 59})
    assert not g._packed and {0, 29, 59} <= set(g.isolated.tolist())
    _check_count_in(g, np.random.default_rng(0))


def test_packed_rows_are_built_by_the_first_count_within_one_block(tmp_path):
    # no graph holds rows before its first count_in, whichever way it was
    # built, and a step does not build them; a sparse or tiny graph never
    # does. The first count of a dense graph holds the rows and one block of
    # the build at most: BUILD_BLOCK neighbor entries' int64 positions, their
    # bool block and its packed bytes, under 10 B per entry (a count block
    # holds less), plus the int32 counts and the packed mask, under 8 B per
    # vertex. An nv x nv bool temporary (16 MB) or masking all rows at once
    # (+1.9 MiB) exceeds it
    dense = generate_sbm(2000, 0.3, 0.09, seed=1)
    path = tmp_path / "g.txt"
    save_graph(dense, path)
    built = [dense, load_graph(path), graph_from_edges(dense.n, _edge_array(dense))]
    step_sampling(dense, state_from_member(dense.degrees > 750), VotingRule("bo3"),
                  np.random.Generator(np.random.Philox(key=1)))
    assert [(g._packed, g._rows) for g in built] == [(True, None)] * 3
    sparse = generate_sbm(2000, 0.02, 0.01, seed=1)
    tiny = graph_from_edges(3, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    assert sparse.neighbors.size >= sbm_graph.BUILD_BLOCK
    for g in (sparse, tiny):
        g.count_in(np.ones(g.num_vertices, dtype=bool))
        assert (g._packed, g._rows) == (False, None)

    nv = dense.num_vertices
    rows_bytes = nv * -(-nv // 64) * 8
    mask = np.random.default_rng(1).random(nv) < 0.5
    tracemalloc.start()
    try:
        count = dense.count_in(mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= rows_bytes + 10 * sbm_graph.BUILD_BLOCK + 8 * nv, peak - rows_bytes
    assert dense._rows.nbytes == rows_bytes and not dense._rows.flags.writeable
    with pytest.raises(ValueError):
        dense._rows[0, 0] = 0  # read-only
    assert np.array_equal(count, built[1].count_in(mask))


def test_gather_count_peaks_within_one_block():
    # a count on a sparse graph gathers a vertex block of at most BUILD_BLOCK
    # entries at a time: its ids converted to intp (8 B per entry), the votes
    # and the gathered mask (2 B) or the votes' int32 cast (5 B), and the
    # int32 counts and the mask (5 B per vertex); it keeps no intp copy of
    # the ids. Gathering the whole int64 neighbor array at once peaked at
    # 74 B per BUILD_BLOCK entry here
    g = generate_sbm(4000, 0.02, 0.01, seed=1)
    nv = g.num_vertices
    assert not g._packed and g.neighbors.size > 10 * sbm_graph.BUILD_BLOCK
    mask = np.random.default_rng(1).random(nv) < 0.5
    tracemalloc.start()
    try:
        count = g.count_in(mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 14 * sbm_graph.BUILD_BLOCK + 8 * nv, (peak - 8 * nv) / sbm_graph.BUILD_BLOCK
    assert vars(g).keys() == {f.name for f in dataclasses.fields(g)}  # nothing kept
    votes = np.add.reduceat(mask[g.neighbors.astype(np.intp)].astype(np.int32), g.offsets[:-1])
    assert np.array_equal(count, np.where(g.degrees > 0, votes, 0))


def test_graph_is_frozen():
    g = generate_sbm(5, 0.5, 0.2, seed=1)
    assert g.degrees.tolist() == np.diff(g.offsets).tolist()
    for name, value in (("n", 6), ("degrees", g.degrees.copy()), ("seed", 2)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(g, name, value)
    with pytest.raises(ValueError):
        g.degrees[0] = 0  # read-only


def test_graph_compares_by_identity():
    a = graph_from_edges(2, [(0, 1), (2, 3)])
    b = graph_from_edges(2, [(0, 1), (2, 3)])
    assert a == a and a != b
    assert len({a, b, a}) == 2
