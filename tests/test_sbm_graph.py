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
    degree_stats,
    generate_sbm,
    graph_from_edges,
    load_graph,
    save_graph,
)
from votedyn import sbm_graph
from votedyn.sbm_graph import (
    _block_edges,
    _key_layout,
    _pair_blocks,
    _pair_indices_geometric,
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
    assert g.offsets.dtype == np.int64 and g.neighbors.dtype == np.int64
    h = hashlib.sha256()
    for arr in (g.offsets, g.neighbors):
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
    # against a CSR built by lexsort from the sampler's pairs, unranked by
    # bisection
    assert _key_layout(2 * n)[1] is width
    p, seed = 1e-4, 6
    g = generate_sbm(n, p, p, seed=seed)
    rng = np.random.Generator(np.random.Philox(key=seed))
    starts = [i * (2 * n - 1 - i) // 2 for i in range(n + 1)]
    pairs = []
    for base in (0, n):
        for k in _pair_indices_geometric(rng, math.comb(n, 2), p).tolist():
            i = bisect.bisect_right(starts, k) - 1
            pairs.append((base + i, base + k - starts[i] + i + 1))
    for k in _pair_indices_geometric(rng, n * n, p).tolist():
        pairs.append((k // n, n + k % n))
    u, v = np.array(pairs, dtype=np.int64).T
    src, dst = np.concatenate((u, v)), np.concatenate((v, u))
    order = np.lexsort((dst, src))
    offsets = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=2 * n))))
    for got, want in ((g.offsets, offsets), (g.neighbors, dst[order])):
        assert got.dtype == np.int64 and not got.flags.writeable
        assert np.array_equal(got, want)


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
    # were written the load peaked at 2.0x
    g = generate_sbm(1000, 0.3, 0.09, seed=1)
    size = g.neighbors.nbytes + g.offsets.nbytes
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
    assert save_peak <= 0.75 * size, save_peak / size
    assert load_peak <= 1.75 * size, load_peak / size
    assert np.array_equal(g2.offsets, g.offsets)
    assert np.array_equal(g2.neighbors, g.neighbors)


_PEAK_GROWTH = """
import sys
from votedyn import generate_sbm, load_graph, save_graph

def peak():
    # the peak resident set of this process image alone, in bytes
    with open("/proc/self/status") as fh:
        return 1024 * next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

mode, path = sys.argv[1:]
before = peak()
g = generate_sbm(2000, 0.3, 0.09, seed=1) if mode == "generate" else load_graph(path)
print((peak() - before) / g.num_edges)
if mode == "generate":
    save_graph(g, path)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads the Linux VmHWM figure")
def test_build_peak_rss_per_edge(tmp_path):
    # each build runs in a fresh process and reports how far it raised the
    # peak resident set, per undirected edge. tracemalloc cannot gate this,
    # as it counts the whole neighbor array (16 B per edge) when it is
    # allocated, before the build touches its lower half; nor can the
    # child's ru_maxrss, which starts at this process's peak, inherited
    # through exec. With the keys and their widened copy held at once,
    # generate grew by 28.2 B and load by 44.0 B per edge.
    env = {**os.environ, "PYTHONPATH": str(Path(sbm_graph.__file__).resolve().parents[1])}
    path = str(tmp_path / "g.txt")

    def growth(mode: str) -> float:
        cmd = [sys.executable, "-c", _PEAK_GROWTH, mode, path]
        return float(subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout)

    assert growth("generate") <= 24
    assert growth("load") <= 32


def _edge_array(g: Graph) -> np.ndarray:
    src = np.repeat(np.arange(g.num_vertices), g.degrees)
    keep = src < g.neighbors
    return np.stack((src[keep], g.neighbors[keep]), axis=1)


def _builds() -> list[Graph]:
    # the widest int32-keyed and narrowest int64-keyed samples, and a graph
    # whose last vertex is isolated, each also through graph_from_edges and
    # a save/load round trip
    graphs = [
        generate_sbm(16384, 2e-5, 1e-5, seed=7),
        generate_sbm(16385, 2e-5, 1e-5, seed=7),
        generate_sbm(40, 0.3, 0.1, seed=2),
        graph_from_edges(3, [(0, 1), (2, 4), (1, 2), (0, 3)]),
    ]
    for g in graphs[:4]:
        graphs.append(graph_from_edges(g.n, _edge_array(g), p=g.p, q=g.q, seed=g.seed))
        text = io.StringIO()
        save_graph(g, text)
        text.seek(0)
        graphs.append(load_graph(text))
    return graphs


@pytest.mark.parametrize("block", [1, 3, 64])
def test_build_blocks_give_the_same_csr(monkeypatch, block):
    # the widening in blocks of a few entries, whose last blocks overlap
    # their own keys, and the sampler's row groups of a few edges, against
    # the default block size, which widens these graphs in one block
    want = _builds()
    assert all(h.neighbors.size <= sbm_graph.BUILD_BLOCK for h in want)
    monkeypatch.setattr(sbm_graph, "BUILD_BLOCK", block)
    got = _builds()
    for g, h in zip(got, want):
        assert np.array_equal(g.offsets, h.offsets)
        assert np.array_equal(g.neighbors, h.neighbors)
        assert g.neighbors.dtype == np.int64 and not g.neighbors.flags.writeable


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


def test_deg_in_set_matches_brute_force():
    # Graph.count_in against a per-vertex count, with isolated vertices in the
    # middle and at the end, and on a graph with no edges
    base = generate_sbm(30, 0.3, 0.15, seed=2)
    cut = {13, 59}
    edges = [(a, b) for a, b in edge_set(base) if a not in cut and b not in cut]
    graphs = [base, graph_from_edges(30, edges), graph_from_edges(3, [])]
    assert np.flatnonzero(graphs[1].degrees == 0).tolist() == [13, 59]
    rng = np.random.default_rng(0)
    for g in graphs:
        nv = g.num_vertices
        for mask in (np.zeros(nv, dtype=bool), np.ones(nv, dtype=bool), rng.random(nv) < 0.3):
            expect = [
                sum(1 for w in g.neighbors[g.offsets[v] : g.offsets[v + 1]] if mask[int(w)])
                for v in range(nv)
            ]
            assert g.count_in(mask).tolist() == expect


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
