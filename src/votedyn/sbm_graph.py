"""Two-community stochastic block model graphs and degree statistics.

Vertices 0..n-1 form community 1 and n..2n-1 form community 2. Each
intra-community pair is an edge independently with probability p, each
cross-community pair with probability q, where 0 <= q <= p <= 1.

Randomness comes from numpy's Philox generator (counter based, 64-bit words)
keyed directly by the seed, so identical seeds give identical graphs on every
platform.

Every Graph is built inside the one array that becomes its neighbor array,
whether it is sampled, read from an edge list or given as pairs. Each
undirected edge (u, v) is written there as its two directed keys u << s | v
and v << s | u, with s = (2n-1).bit_length(). The keys are int32 while they
fit in 31 bits (n <= 16384), int64 above. While edges are sampled or parsed
the array grows in place, in fixed steps, and nothing else the build
allocates is larger than a fixed slice. The sampler appends each block's
ascending pair indices to it; once all three blocks are in, the indices move
to its upper half and the keys are written front to back over them. A parsed
block's keys are written after those of the blocks before it. One writer,
_write_keys, computes every key, of all three builds, at the key width. One
in-place sort orders the keys by (u, v), the offsets are read off them by
binary search, and masking them to their low s bits in place turns them into
the neighbor ids, which keep the key width. n and the directed entries have
fixed caps, MAX_N and MAX_ENTRIES, checked before anything is allocated.

A dense graph also has packed adjacency rows, one bit per vertex pair, which
Graph.count_in builds on its first call and counts on by population count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import itertools
import math
import re

import numpy as np

__all__ = [
    "Graph",
    "DegreeStats",
    "generate_sbm",
    "degree_stats",
    "graph_from_edges",
    "save_graph",
    "load_graph",
]

@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable adjacency in compressed form: sorted neighbor lists per vertex.

    Two graphs compare equal only when they are the same object. The arrays
    are read-only. The neighbor ids have the key width, int32 for n <= 16384
    and int64 above, so a gather indexed by them uses take or converts to intp.

    Attributes
    ----------
    n : int
        Vertices per community; the graph has 2n vertices.
    offsets : ndarray of int64, shape (2n+1,)
        Neighbor-list boundaries; neighbors of v are
        ``neighbors[offsets[v]:offsets[v+1]]``, sorted ascending.
    neighbors : ndarray of int32 or int64
        Concatenated neighbor lists.
    p, q : float
        Edge probabilities recorded at generation time.
    seed : int
        Generation seed recorded for serialization.
    degrees : ndarray of int64, shape (2n,)
        Per-vertex degrees, computed at construction.
    isolated : ndarray of int64
        Ascending ids of the degree-0 vertices, computed at construction.
    """

    n: int
    offsets: np.ndarray
    neighbors: np.ndarray
    p: float
    q: float
    seed: int = 0
    degrees: np.ndarray = field(init=False, repr=False)
    isolated: np.ndarray = field(init=False, repr=False)
    # whether count_in uses packed rows, set at construction, then the rows,
    # made by its first count_in, and the probability-table key ids of
    # voting_core.step_probabilities, made by its first call; class defaults
    # rather than fields, so constructing a graph sets none of them
    _packed = False
    _rows = None
    _key_ids = None

    def __post_init__(self):
        offsets, neighbors = self.offsets, self.neighbors
        degrees = offsets[1:] - offsets[:-1]
        isolated = (degrees == 0).nonzero()[0]
        for arr in (offsets, neighbors, degrees, isolated):
            arr.setflags(write=False)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "isolated", isolated)
        entries = neighbors.size
        if entries >= BUILD_BLOCK and entries >= PACKED_FILL * degrees.size * _row_words(degrees.size):
            object.__setattr__(self, "_packed", True)

    @property
    def num_vertices(self) -> int:
        return 2 * self.n

    @property
    def num_edges(self) -> int:
        return int(self.neighbors.size) // 2

    def count_in(self, mask: np.ndarray) -> np.ndarray:
        """Each vertex's number of neighbors inside a boolean vertex mask.

        A dense graph, with at least BUILD_BLOCK directed entries and
        PACKED_FILL per 64-bit row word, counts on packed adjacency rows,
        built by its first call and kept: bit v of row u is set iff v is a
        neighbor of u, and a vertex's count is the population count of its
        row and the packed mask. Any other graph gathers the mask over its
        neighbor array, in vertex blocks of at most BUILD_BLOCK entries."""
        if self._packed:
            if self._rows is None:
                object.__setattr__(self, "_rows", _pack_rows(self))
            return _count_rows(self._rows, mask)
        ids, offsets = self.neighbors, self.offsets
        count = np.empty(self.degrees.size, dtype=np.int32)
        for lo, hi in _row_blocks(offsets, BUILD_BLOCK):
            a = offsets[lo]  # the block's intp ids are freed by the return
            _count_ids(mask, ids[a : offsets[hi]].astype(np.intp), offsets[lo:hi] - a, out=count[lo:hi])
        # a degree-0 vertex reads one stray vote
        if self.isolated.size:
            count[self.isolated] = 0
        return count


@dataclass
class DegreeStats:
    """Degree summary; normalized_dev is the empirical constant in front of
    sqrt(n p log n) for the worst deviation of deg(v) from n(p+q)."""

    min_deg: int
    max_deg: int
    mean_deg: float
    max_abs_dev: float
    normalized_dev: float


def _sample_pairs(rng: np.random.Generator, m: int, prob: float, keys: np.ndarray, end: int) -> int:
    # appends the ascending indices of the hits among m Bernoulli(prob) pairs
    # to keys[end:] and returns the new end: the gap to the next hit is 1 +
    # floor(log(1-u) / log(1-prob)) (Batagelj and Brandes, Phys. Rev. E 71,
    # 036113, 2005). The chunk sizes fix how many words each block consumes,
    # so a chunk is drawn BUILD_BLOCK uniforms at a time and its words past
    # the cut at m are skipped unread; each index becomes two directed keys
    cap = MAX_ENTRIES // 2
    if m == 0 or prob <= 0.0:
        return end
    if prob >= 1.0:
        for lo in range(0, m, BUILD_BLOCK):
            end = _append(keys, end, np.arange(lo, min(lo + BUILD_BLOCK, m)), cap)
        return end
    log_skip = math.log1p(-prob)
    # a gap of m + 1 passes the last pair from any position, so capping the
    # numerator there changes no hit; it keeps the quotient finite and inside
    # int64 when prob is tiny
    log_cap = (m + 1) * log_skip
    pos = -1
    while pos < m:
        draws = int((m - pos) * prob * 1.1) + 64
        while draws and pos < m:
            u = rng.random(min(draws, BUILD_BLOCK))
            draws -= u.size
            np.negative(u, out=u)
            np.log1p(u, out=u)
            np.maximum(u, log_cap, out=u)
            u /= log_skip
            np.floor(u, out=u)
            # the gaps are summed in int64, as a slice's sum can pass 2**31
            # before the cut at m
            hits = u.astype(np.int64)
            hits += 1
            np.cumsum(hits, out=hits)
            hits += pos
            pos = int(hits[-1])
            if pos >= m:
                hits = hits[: np.searchsorted(hits, m)]
            end = _append(keys, end, hits, cap)
        if draws:
            rng.bit_generator.random_raw(draws, output=False)
    return end


def _pair_blocks(n: int) -> list[tuple[np.ndarray, int, np.ndarray]]:
    # (starts, row0, col0) of each block in sampling order, at the key width,
    # which holds every pair index: pair (i, j), i < j, of a community has
    # index i(2n-1-i)/2 + j-i-1, and the cross pair (i, n+j) i*n + j
    i = np.arange(n + 1, dtype=_key_layout(2 * n)[1])
    intra = i * (2 * n - 1 - i) // 2
    return [(intra, 0, i[:-1] + 1), (intra, n, i[:-1] + 1 + n), (i * n, 0, np.full(n, n, dtype=i.dtype))]


def _block_edges(hits, starts, row0, col0, dtype) -> tuple[np.ndarray, np.ndarray]:
    # the edges (row0 + r, col0[r] + k - starts[r]) of the ascending pair
    # indices k, where row r of the block owns starts[r] <= k < starts[r+1]
    counts = np.diff(np.searchsorted(hits, starts))
    u = np.repeat(np.arange(row0, row0 + counts.size, dtype=dtype), counts)
    v = hits.astype(dtype)
    v -= np.repeat((starts[:-1] - col0).astype(dtype), counts)
    return u, v


def _key_layout(nv: int) -> tuple[int, type]:
    # the directed edge (u, v) has the key u << s | v, which sorts like
    # u*nv + v; int32 keys hold it while 2s <= 31, i.e. up to n = 16384
    s = (nv - 1).bit_length()
    return s, np.int32 if 2 * s <= 31 else np.int64


# uniforms per slice of a sampled chunk, edges per row group of a sampled
# block, pairs per step of a key conversion, and entries per growth step of a
# neighbor array or per block of a count; each bounds the temporaries or the
# slack of one step of the build or the count
BUILD_BLOCK = 1 << 16

# fixed caps on a graph, whatever the host, checked before anything is
# allocated. MAX_N bounds the per-vertex arrays (offsets and degrees take
# 16 B per vertex, 512 MiB at the cap) and keeps every degree below 2n <=
# 2**25; MAX_ENTRIES bounds the neighbor array, 16 GiB of int64 ids at the cap
MAX_N = 1 << 24
MAX_ENTRIES = 1 << 31

# a graph of at least BUILD_BLOCK directed entries counts on packed rows when
# it has PACKED_FILL or more entries per 64-bit word of them. One count on the
# rows breaks even with the gather at 1.1 to 1.4 entries per word (timeit,
# n = 1000 to 4000); at 2 it is 1.3 to 2.1x faster, and the one-off build,
# about six gathers' time there, is repaid within 10 to 30 counts (a goodness
# report makes about 50)
PACKED_FILL = 2


def _row_words(nv: int) -> int:
    return -(-nv // 64)


def _pack_rows(g: Graph) -> np.ndarray:
    # the read-only (nv, words) uint64 adjacency rows, a block of rows at a
    # time: the block's neighbor entries, at most BUILD_BLOCK (or one row's),
    # are marked in a bool block of at most BUILD_BLOCK bytes, which is packed
    # in little-endian bit order as _count_rows packs the mask, so a count
    # does not depend on the byte order of the words
    nv = g.num_vertices
    width = 64 * _row_words(nv)
    rows = np.empty((nv, width // 64), dtype=np.uint64)
    step = max(1, BUILD_BLOCK // width)
    for lo in range(0, nv, step):
        hi = min(lo + step, nv)
        at = np.repeat(np.arange(0, (hi - lo) * width, width), g.degrees[lo:hi])
        at += g.neighbors[g.offsets[lo] : g.offsets[hi]]
        block = np.zeros((hi - lo, width), dtype=bool)
        block.reshape(-1)[at] = True
        rows[lo:hi] = np.packbits(block, axis=1, bitorder="little").view(np.uint64)
    rows.setflags(write=False)
    return rows


def _count_rows(rows: np.ndarray, mask: np.ndarray) -> np.ndarray:
    # each row's population count of its bits inside the mask, as int32. A
    # block of rows of at most BUILD_BLOCK / 2 words is masked at a time, so
    # its temporaries (8 B masked words, 1 B counts and numpy's ufunc
    # buffer) stay below those of one block of _pack_rows
    nv, words = rows.shape
    packed = np.zeros(8 * words, dtype=np.uint8)
    packed[: -(-nv // 8)] = np.packbits(mask, bitorder="little")
    packed = packed.view(np.uint64)
    count = np.empty(nv, dtype=np.int32)
    step = max(1, BUILD_BLOCK // (2 * words))
    for lo in range(0, nv, step):
        hits = np.bitwise_count(rows[lo : lo + step] & packed)
        hits.sum(axis=1, dtype=np.int32, out=count[lo : lo + step])
    return count


def _row_blocks(offsets: np.ndarray, size: int):
    # the ranges [lo, hi) of consecutive rows with at most size entries in
    # all, row i owning offsets[i]:offsets[i+1]; a larger row is a range alone
    lo = 0
    while lo < offsets.size - 1:
        hi = max(int(np.searchsorted(offsets, offsets[lo] + size, side="right")) - 1, lo + 1)
        yield lo, hi
        lo = hi


def _count_ids(mask, ids, starts, out=None) -> np.ndarray:
    # each vertex's int32 count of the intp ids inside the mask, vertex i
    # owning ids[starts[i]:starts[i+1]]; the trailing zero gives a degree-0
    # last vertex a start, and the votes and their int32 cast take 5 B per id
    votes = np.zeros(ids.size + 1, dtype=np.uint8)
    votes[:-1] = mask[ids]
    return np.add.reduceat(votes, starts, dtype=np.int32, out=out)


def _write_keys(keys: np.ndarray, lo: int, u: np.ndarray, v: np.ndarray, s: int) -> int:
    # both directed keys of the edges (u, v) into keys[lo:], and returns the
    # end. They are computed at the key width, where a narrower id type would
    # overflow the shift; the ufuncs cast the ids in buffered chunks, so no
    # full-size temporary is made
    e, dtype = u.size, keys.dtype
    fwd, rev = keys[lo : lo + e], keys[lo + e : lo + 2 * e]
    np.left_shift(u, s, out=fwd, dtype=dtype)
    np.bitwise_or(fwd, v, out=fwd, dtype=dtype)
    np.left_shift(v, s, out=rev, dtype=dtype)
    np.bitwise_or(rev, u, out=rev, dtype=dtype)
    return lo + 2 * e


def _write_block(keys, lo, hits, starts, row0, col0, s) -> int:
    # the keys of one block's edges into keys[lo:], in row groups of about
    # BUILD_BLOCK edges (a row with more is a group of its own); returns the end
    bounds = np.searchsorted(hits, starts)
    for r, r1 in _row_blocks(bounds, BUILD_BLOCK):
        group = hits[bounds[r] : bounds[r1]]
        u, v = _block_edges(group, starts[r : r1 + 1], row0 + r, col0[r:r1], keys.dtype)
        lo = _write_keys(keys, lo, u, v, s)
    return lo


def _make_room(keys: np.ndarray, new: int, cap: int) -> None:
    # grows keys, a graph's neighbor array while it is built, to hold new
    # entries. It grows in place, by ndarray.resize, a realloc that on Linux
    # remaps a large array rather than copying it, to exactly new entries
    # up to one BUILD_BLOCK and to a whole number of them past it: growth by
    # a factor leaves up to that factor of slack. It never grows past cap
    # entries, and a view of it made before the call must not be used after it
    if new > keys.size:
        if new > cap:
            raise ValueError(f"a graph may hold at most {MAX_ENTRIES} directed entries")
        size = new if new <= BUILD_BLOCK else -(-new // BUILD_BLOCK) * BUILD_BLOCK
        keys.resize(min(cap, size), refcheck=False)


def _append(keys: np.ndarray, end: int, items: np.ndarray, cap: int) -> int:
    # the 1-d items into keys[end:], and returns the new end
    new = end + items.size
    _make_room(keys, new, cap)
    keys[end:new] = items
    return new


def _append_keys(keys: np.ndarray, end: int, pairs: np.ndarray, s: int) -> int:
    # the directed keys of the (E, 2) id pairs into keys[end:], and returns
    # the new end
    _make_room(keys, end + pairs.size, MAX_ENTRIES)
    return _write_keys(keys, end, pairs[:, 0], pairs[:, 1], s)


def _graph_from_keys(n: int, keys: np.ndarray, s: int, p: float, q: float, seed: int) -> Graph:
    # keys holds both directed keys of every edge; one in-place sort orders
    # them by (u, v), so two equal adjacent keys are a duplicate edge or a
    # self loop, whose two keys are equal, and the low s bits of the sorted
    # keys are the neighbor array
    keys.sort()
    low = (1 << s) - 1
    for lo in range(0, keys.size - 1, BUILD_BLOCK):
        block = keys[lo : lo + BUILD_BLOCK + 1]
        if (block[1:] == block[:-1]).any():
            for a in range(0, keys.size, BUILD_BLOCK):
                part = keys[a : a + BUILD_BLOCK]
                if ((part >> s) == (part & low)).any():
                    raise ValueError("self loops are not allowed")
            raise ValueError("duplicate edges are not allowed")
    offsets = np.searchsorted(keys, np.arange(0, (2 * n + 1) << s, 1 << s, dtype=keys.dtype))
    keys &= low
    return Graph(n=n, offsets=offsets, neighbors=keys, p=float(p), q=float(q), seed=seed)


def _require_int(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_sbm_params(n: int, p: float, q: float) -> None:
    # plain comparisons: graph_from_edges runs this on every small graph
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n > MAX_N:
        raise ValueError(f"n must be at most {MAX_N}, got {n}")
    if q > p:
        raise ValueError("q must not exceed p")
    if not 0.0 <= q <= p <= 1.0:
        raise ValueError("edge probabilities must satisfy 0 <= q <= p <= 1")


def _check_entries(entries: float) -> None:
    if entries > MAX_ENTRIES:
        raise ValueError(f"a graph may hold at most {MAX_ENTRIES} directed entries, this one {entries:.4g}")


def generate_sbm(n: int, p: float, q: float, seed: int) -> Graph:
    """Sample G(2n, p, q) deterministically from the seed.

    Blocks are drawn in a fixed order (community 1 pairs, community 2 pairs,
    cross pairs) from one Philox stream. Within a block the sampler skips
    geometrically from edge to edge, drawing about one uniform per edge, so
    its cost follows the edge count rather than the pair count. It draws in
    slices of BUILD_BLOCK uniforms and appends the ascending pair indices to
    the graph's neighbor array. A lookup of each hit's row then turns them
    into edges, a row group of about BUILD_BLOCK edges at a time, whose two
    directed keys are written over the indices; one sort of them builds the
    graph. n may be at most MAX_N, and the expected number of directed
    entries, 2(n(n-1)p + n^2 q), at most MAX_ENTRIES.
    """
    n = _require_int("n", n)
    seed = _require_int("seed", seed)
    _check_sbm_params(n, p, q)
    _check_entries(2 * (n * (n - 1) * p + n * n * q))
    rng = np.random.Generator(np.random.Philox(key=seed))
    m_intra = n * (n - 1) // 2
    s, dtype = _key_layout(2 * n)
    keys = np.empty(0, dtype=dtype)
    ends = [0]
    for m, prob in ((m_intra, p), (m_intra, p), (n * n, q)):
        ends.append(_sample_pairs(rng, m, prob, keys, ends[-1]))
    # the pair indices move to the upper half, and the keys are written front
    # to back over them: the keys of the first c edges end at 2c, where the
    # unread indices start at E + c
    e = ends[-1]
    keys.resize(2 * e, refcheck=False)
    keys[e:] = keys[:e]
    lo = 0
    for (starts, row0, col0), a, b in zip(_pair_blocks(n), ends, ends[1:]):
        lo = _write_block(keys, lo, keys[e + a : e + b], starts, row0, col0, s)
    return _graph_from_keys(n, keys, s, p, q, seed)


def degree_stats(g: Graph) -> DegreeStats:
    """Exact scan of all degrees against the target n(p+q)."""
    deg = g.degrees
    expect = g.n * (g.p + g.q)
    max_abs_dev = float(np.max(np.abs(deg - expect))) if deg.size else 0.0
    denom = math.sqrt(g.n * g.p * math.log(g.n)) if g.n > 1 and g.p > 0 else 0.0
    if denom > 0:
        normalized = max_abs_dev / denom
    else:
        normalized = 0.0 if max_abs_dev == 0 else math.inf
    return DegreeStats(
        min_deg=int(deg.min()) if deg.size else 0,
        max_deg=int(deg.max()) if deg.size else 0,
        mean_deg=float(deg.mean()) if deg.size else 0.0,
        max_abs_dev=max_abs_dev,
        normalized_dev=normalized,
    )


def graph_from_edges(n: int, edges, p: float = 0.0, q: float = 0.0, seed: int = 0) -> Graph:
    """Build a validated Graph from an (E, 2) array-like of undirected (u, v)
    pairs, each edge once in either orientation. Vertex ids must have an
    integer type; floats, strings and bools are rejected, not converted.
    n, p and q must pass the checks of generate_sbm, so every graph built
    here saves to text that load_graph reads back, and the graph may have at
    most MAX_ENTRIES directed entries."""
    n = _require_int("n", n)
    seed = _require_int("seed", seed)
    _check_sbm_params(n, p, q)
    nv = 2 * n
    arr = np.asarray(edges)
    if arr.size == 0:
        arr = np.empty((0, 2), dtype=np.int64)
    # a list mixing bools with ints still gives an integer array
    if (
        arr.ndim != 2
        or arr.shape[1] != 2
        or arr.dtype.kind not in "iu"
        or not isinstance(edges, np.ndarray)
        and not {bool, np.bool_}.isdisjoint(map(type, itertools.chain.from_iterable(edges)))
    ):
        raise ValueError("each edge must be exactly two integer vertex ids")
    _check_entries(2 * arr.shape[0])
    # viewed as unsigned, a negative id is above every valid one
    if arr.size and arr.view(arr.dtype.str.replace("i", "u")).max() >= nv:
        raise ValueError("edge endpoint out of range")
    s, dtype = _key_layout(nv)
    keys = np.empty(arr.size, dtype=dtype)
    _write_keys(keys, 0, arr[:, 0], arr[:, 1], s)
    return _graph_from_keys(n, keys, s, p, q, seed)


def save_graph(g: Graph, dest) -> None:
    """Edge-list text format: header `sbm n p q seed`, one `u v` line per
    undirected edge with u < v. dest is a path or an open text handle."""
    if hasattr(dest, "write"):
        _write_graph(g, dest)
        return
    with open(dest, "w", encoding="ascii") as fh:
        _write_graph(g, fh)


# directed neighbor entries per write block, and characters per read block;
# either bounds the text buffers of one block. A read block's parse
# temporaries stay in the heap after the load: several MiB at 2^18 characters
WRITE_BLOCK = 1 << 16
READ_BLOCK = 1 << 16


def _write_graph(g: Graph, fh) -> None:
    fh.write(f"sbm {g.n} {g.p!r} {g.q!r} {g.seed}\n")
    nv = g.num_vertices
    # every id's decimal text, padded with NUL bytes to the widest id; each
    # line is a fixed-width record `u v\n` gathered from that table, and the
    # pad bytes are dropped from each block's buffer
    w = len(str(nv - 1))
    text = np.arange(nv).astype(f"S{w}")
    record = [("u", f"S{w}"), ("sp", "S1"), ("v", f"S{w}"), ("nl", "S1")]
    offsets = g.offsets
    for lo, hi in _row_blocks(offsets, WRITE_BLOCK):
        src = np.repeat(np.arange(lo, hi), g.degrees[lo:hi])
        dst = g.neighbors[offsets[lo] : offsets[hi]]
        keep = src < dst
        lines = np.empty(int(np.count_nonzero(keep)), dtype=record)
        lines["u"] = text[src[keep]]
        lines["sp"] = b" "
        lines["v"] = text.take(dst[keep])
        lines["nl"] = b"\n"
        raw = lines.view(np.uint8)
        fh.write(raw[raw != 0].tobytes().decode("ascii"))


def load_graph(source) -> Graph:
    """Parse and validate the edge-list format written by save_graph.
    source is a path or an open text handle.

    After the header, each line holds either nothing or exactly two vertex
    ids separated by blanks. An id is one or more ASCII digits; a blank is a
    space, tab or carriage return; a line ends with a line feed or the end
    of the file. Any other character, such as a sign, a decimal point, an
    exponent or a comment, makes the file invalid. The header is as exact:
    n and seed are digits with an optional minus sign, and p and q unsigned
    decimals with an optional exponent, such as 0.5, 1e-05 or 2.5E+3. n may
    be at most MAX_N, and the edges make at most MAX_ENTRIES directed
    entries. A path is read with lines ended by line feeds alone, as an
    io.StringIO reads them, so a carriage return stays a blank."""
    if hasattr(source, "read"):
        return _read_graph(source)
    with open(source, "r", encoding="ascii", newline="\n") as fh:
        return _read_graph(fh)


# byte classes of the body text: 0 is not allowed, then digit, blank and
# line feed
_DIGIT, _BLANK, _NEWLINE = 1, 2, 3
_BYTE_CLASS = np.zeros(256, dtype=np.uint8)
_BYTE_CLASS[np.frombuffer(b"0123456789", dtype=np.uint8)] = _DIGIT
_BYTE_CLASS[np.frombuffer(b" \t\r", dtype=np.uint8)] = _BLANK
_BYTE_CLASS[ord("\n")] = _NEWLINE
_BAD_LINE = "each edge line must hold exactly two integer vertex ids"
_DECIMAL = r"([0-9]+\.?[0-9]*(?:[eE][-+]?[0-9]+)?)"
_HEADER = re.compile(rf"sbm[ \t]+(-?[0-9]+)[ \t]+{_DECIMAL}[ \t]+{_DECIMAL}[ \t]+(-?[0-9]+)[ \t\r]*\n?")


def _read_graph(fh) -> Graph:
    header = _HEADER.fullmatch(fh.readline())
    if header is None:
        raise ValueError("bad header: expected `sbm n p q seed`")
    n, p, q, seed = int(header[1]), float(header[2]), float(header[3]), int(header[4])
    _check_sbm_params(n, p, q)
    nv = 2 * n
    s, dtype = _key_layout(nv)
    keys = np.empty(_entry_bound(fh, nv), dtype=dtype)
    end = 0
    tail = []  # the pieces of a line that no block has ended yet
    while chunk := fh.read(READ_BLOCK):
        # a non-ASCII character becomes "?", which the byte classes reject
        data = chunk.encode("ascii", "replace")
        cut = data.rfind(b"\n") + 1
        if cut:
            end = _append_keys(keys, end, _parse_lines(b"".join([*tail, data[:cut]]), nv), s)
            tail = []
        tail.append(data[cut:])
    end = _append_keys(keys, end, _parse_lines(b"".join(tail) + b"\n", nv), s)
    keys.resize(end, refcheck=False)
    return _graph_from_keys(n, keys, s, p, q, seed)


def _entry_bound(fh, nv: int) -> int:
    # the directed entries the rest of a seekable source can hold, two per
    # line and per vertex pair, its lines counted by a first pass over its
    # line feeds (one more for a last line without one); 0 for any other
    # source. The neighbor array is then allocated once: grown by realloc
    # after a larger array was freed, which raises glibc's mmap threshold,
    # it comes from the heap, where each move past a block's temporaries
    # keeps its old pages, so the peak would depend on heap placement
    if not fh.seekable():
        return 0
    start = fh.tell()
    lines = 1
    while chunk := fh.read(READ_BLOCK):
        lines += chunk.count("\n")
    fh.seek(start)
    return 2 * min(lines, nv * (nv - 1) // 2, MAX_ENTRIES // 2)


def _parse_lines(data: bytes, nv: int) -> np.ndarray:
    # data is whole lines, the last one ending in a line feed; returns their
    # (u, v) pairs as an (E, 2) int64 array
    cls = np.take(_BYTE_CLASS, np.frombuffer(data, dtype=np.uint8))
    if not cls.all():
        raise ValueError(_BAD_LINE)
    digit = cls == _DIGIT
    first = digit.copy()
    first[1:] &= ~digit[:-1]
    # token starts and line feeds in position order: the tokens of a line
    # form one run between two line feeds, and every run must hold exactly
    # two, so no token may have tokens on both sides or on neither side
    marks = np.flatnonzero(first | (cls == _NEWLINE))
    token = np.zeros(marks.size + 2, dtype=bool)
    token[1:-1] = cls[marks] == _DIGIT
    if (token[1:-1] & (token[:-2] == token[2:])).any():
        raise ValueError(_BAD_LINE)
    count = int(np.count_nonzero(token))
    if not count:
        return np.empty((0, 2), dtype=np.int64)
    # fromstring saturates an id too long for int64 at 2**63 - 1, which the
    # range check rejects
    ids = np.fromstring(data, dtype=np.int64, sep=" ")
    if ids.size != count:
        raise ValueError(_BAD_LINE)
    if ids.max() >= nv:
        raise ValueError("edge endpoint out of range")
    return ids.reshape(-1, 2)
