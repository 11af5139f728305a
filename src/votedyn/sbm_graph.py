"""Two-community stochastic block model graphs and degree statistics.

Vertices 0..n-1 form community 1 and n..2n-1 form community 2. Each
intra-community pair is an edge independently with probability p, each
cross-community pair with probability q, where 0 <= q <= p <= 1.

Randomness comes from numpy's Philox generator (counter based, 64-bit words)
keyed directly by the seed, so identical seeds give identical graphs on every
platform.

Every Graph is built the same way, whether sampled or read from an edge list,
inside its own final int64 neighbor array: each undirected edge (u, v) is
written as its two directed keys u << s | v and v << s | u, with
s = (2n-1).bit_length(). The keys are int32 while they fit in 31 bits
(n <= 16384) and fill an int32 view of the array's upper half; above that they
are int64 and fill the whole array. One in-place sort orders the keys by
(u, v), the offsets are read off them by binary search, and their low s bits
are widened into the array front to back in fixed blocks. No second copy of
the keys is made, and the lower half of an int32-keyed array is not touched
before the widening. Sampled edges are written a row group at a time, and
parsed edge-list blocks are freed one by one as their keys are written.
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
    are read-only and always int64, whatever key width built them.

    Attributes
    ----------
    n : int
        Vertices per community; the graph has 2n vertices.
    offsets : ndarray of int64, shape (2n+1,)
        Neighbor-list boundaries; neighbors of v are
        ``neighbors[offsets[v]:offsets[v+1]]``, sorted ascending.
    neighbors : ndarray of int64
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

    def __post_init__(self):
        degrees = self.offsets[1:] - self.offsets[:-1]
        isolated = (degrees == 0).nonzero()[0]
        for arr in (self.offsets, self.neighbors, degrees, isolated):
            arr.setflags(write=False)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "isolated", isolated)

    @property
    def num_vertices(self) -> int:
        return 2 * self.n

    @property
    def num_edges(self) -> int:
        return int(self.neighbors.size) // 2

    def count_in(self, mask: np.ndarray) -> np.ndarray:
        """Each vertex's number of neighbors inside a boolean vertex mask."""
        # one reduceat over the vote array; the trailing zero gives a degree-0
        # last vertex a valid start index. A degree-0 vertex reads one stray
        # vote, so isolated vertices are zeroed afterwards.
        votes = np.zeros(self.neighbors.size + 1, dtype=bool)
        votes[:-1] = mask[self.neighbors]
        count = np.add.reduceat(votes.view(np.uint8), self.offsets[:-1], dtype=np.int32)
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


def _pair_indices_geometric(rng: np.random.Generator, m: int, prob: float) -> np.ndarray:
    # ascending indices of the hits among m Bernoulli(prob) pairs: the gap to
    # the next hit is 1 + floor(log(1-u) / log(1-prob)) (Batagelj and Brandes,
    # Phys. Rev. E 71, 036113, 2005)
    if m == 0 or prob <= 0.0:
        return np.empty(0, dtype=np.int64)
    if prob >= 1.0:
        return np.arange(m, dtype=np.int64)
    log_skip = math.log1p(-prob)
    # a gap of m + 1 passes the last pair from any position, so capping the
    # numerator there changes no hit; it keeps the quotient finite and inside
    # int64 when prob is tiny
    log_cap = (m + 1) * log_skip
    chunks = []
    pos = -1
    while pos < m:
        u = rng.random(int((m - pos) * prob * 1.1) + 64)
        np.negative(u, out=u)
        np.log1p(u, out=u)
        np.maximum(u, log_cap, out=u)
        u /= log_skip
        np.floor(u, out=u)
        hits = u.astype(np.int64)
        del u
        hits += 1
        np.cumsum(hits, out=hits)
        hits += pos
        pos = int(hits[-1])
        if pos >= m:
            hits = hits[: np.searchsorted(hits, m)]
        chunks.append(hits)
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def _pair_blocks(n: int) -> list[tuple[np.ndarray, int, np.ndarray]]:
    # (starts, row0, col0) of each block in sampling order. Pair (i, j),
    # i < j, of a community has index i(2n-1-i)/2 + j-i-1, and the cross pair
    # (i, n+j) has index i*n + j
    i = np.arange(n + 1, dtype=np.int64)
    intra = i * (2 * n - 1 - i) // 2
    return [(intra, 0, i[:-1] + 1), (intra, n, i[:-1] + 1 + n), (i * n, 0, np.full(n, n))]


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


# directed entries per widening block, and edges per row group of a sampled
# block; either bounds the temporaries of one step of the build
BUILD_BLOCK = 1 << 16


def _key_buffer(count: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    # the int64 neighbor array of count directed entries, and the keys to
    # write into it: the array itself for int64 keys, an int32 view of its
    # upper half for int32 keys
    buf = np.empty(count, dtype=np.int64)
    return buf, buf if dtype is np.int64 else buf.view(np.int32)[count:]


def _write_keys(keys: np.ndarray, lo: int, u: np.ndarray, v: np.ndarray, s: int) -> int:
    # both directed keys of the edges (u, v) into keys[lo:]; returns the end
    e = u.size
    fwd, rev = keys[lo : lo + e], keys[lo + e : lo + 2 * e]
    np.left_shift(u, s, out=fwd)
    fwd |= v
    np.left_shift(v, s, out=rev)
    rev |= u
    return lo + 2 * e


def _write_block(keys, lo, hits, starts, row0, col0, s) -> int:
    # the keys of one block's edges into keys[lo:], in row groups of about
    # BUILD_BLOCK edges (a row with more is a group of its own); returns the end
    bounds = np.searchsorted(hits, starts)
    r = 0
    while r < col0.size:
        r1 = max(int(np.searchsorted(bounds, bounds[r] + BUILD_BLOCK, side="right")) - 1, r + 1)
        group = hits[bounds[r] : bounds[r1]]
        u, v = _block_edges(group, starts[r : r1 + 1], row0 + r, col0[r:r1], keys.dtype)
        lo = _write_keys(keys, lo, u, v, s)
        r = r1
    return lo


def _graph_from_keys(
    n: int, buf: np.ndarray, keys: np.ndarray, s: int, p: float, q: float, seed: int
) -> Graph:
    # keys, from _key_buffer(buf.size, ...), holds both directed keys of every
    # edge; one in-place sort orders them by (u, v), so two equal adjacent
    # keys are a duplicate edge, and the low s bits of the sorted keys are
    # the neighbor array
    keys.sort()
    if (keys[1:] == keys[:-1]).any():
        raise ValueError("duplicate edges are not allowed")
    offsets = np.searchsorted(keys, np.arange(0, (2 * n + 1) << s, 1 << s, dtype=keys.dtype))
    # buf[i] spans the int32 slots 2i and 2i+1 and key i sits at slot
    # buf.size + i, so the block [a, b) writes below every key past b; numpy
    # copies a block's keys first where they overlap its own output
    low = (1 << s) - 1
    for a in range(0, buf.size, BUILD_BLOCK):
        np.bitwise_and(keys[a : a + BUILD_BLOCK], low, out=buf[a : a + BUILD_BLOCK])
    return Graph(n=n, offsets=offsets, neighbors=buf, p=float(p), q=float(q), seed=seed)


def _graph_from_pairs(n: int, blocks: list, p: float, q: float, seed: int) -> Graph:
    # blocks holds (E, 2) integer arrays of in-range vertex ids; each is
    # popped once its keys are written, so the list is empty afterwards
    s, dtype = _key_layout(2 * n)
    buf, keys = _key_buffer(2 * sum(len(b) for b in blocks), dtype)
    lo = 0
    while blocks:
        u, v = blocks.pop(0).astype(dtype, copy=False).T
        if (u == v).any():
            raise ValueError("self loops are not allowed")
        lo = _write_keys(keys, lo, u, v, s)
    return _graph_from_keys(n, buf, keys, s, p, q, seed)


def _require_int(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_sbm_params(n: int, p: float, q: float) -> None:
    # plain comparisons: graph_from_edges runs this on every small graph
    if n < 1:
        raise ValueError("n must be a positive integer")
    if q > p:
        raise ValueError("q must not exceed p")
    if not 0.0 <= q <= p <= 1.0:
        raise ValueError("edge probabilities must satisfy 0 <= q <= p <= 1")


def generate_sbm(n: int, p: float, q: float, seed: int) -> Graph:
    """Sample G(2n, p, q) deterministically from the seed.

    Blocks are drawn in a fixed order (community 1 pairs, community 2 pairs,
    cross pairs) from one Philox stream. Within a block the sampler skips
    geometrically from edge to edge, drawing about one uniform per edge, so
    its cost follows the edge count rather than the pair count. A lookup of
    each hit's row turns the ascending pair indices into edges, a row group
    of about BUILD_BLOCK edges at a time, whose two directed keys go straight
    into the graph's neighbor array; one sort of them builds the graph.
    """
    n = _require_int("n", n)
    seed = _require_int("seed", seed)
    _check_sbm_params(n, p, q)
    rng = np.random.Generator(np.random.Philox(key=seed))
    m_intra = n * (n - 1) // 2
    draws = ((m_intra, p), (m_intra, p), (n * n, q))
    hits = [_pair_indices_geometric(rng, m, prob) for m, prob in draws]
    s, dtype = _key_layout(2 * n)
    buf, keys = _key_buffer(2 * sum(h.size for h in hits), dtype)
    lo = 0
    for starts, row0, col0 in _pair_blocks(n):
        # a block's pair indices are freed once its keys are written
        lo = _write_block(keys, lo, hits.pop(0), starts, row0, col0, s)
    return _graph_from_keys(n, buf, keys, s, p, q, seed)



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
    here saves to text that load_graph reads back."""
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
    if arr.size and (arr.min() < 0 or arr.max() >= nv):
        raise ValueError("edge endpoint out of range")
    return _graph_from_pairs(n, [arr], p, q, seed)


def save_graph(g: Graph, dest) -> None:
    """Edge-list text format: header `sbm n p q seed`, one `u v` line per
    undirected edge with u < v. dest is a path or an open text handle."""
    if hasattr(dest, "write"):
        _write_graph(g, dest)
        return
    with open(dest, "w", encoding="ascii") as fh:
        _write_graph(g, fh)


# directed neighbor entries per write block, and characters per read block;
# either bounds the text buffers of one block
WRITE_BLOCK = 1 << 16
READ_BLOCK = 1 << 18


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
    lo = 0
    while lo < nv:
        # consecutive vertices with about WRITE_BLOCK entries in all; a
        # vertex of larger degree is a block of its own
        hi = int(np.searchsorted(offsets, offsets[lo] + WRITE_BLOCK, side="right")) - 1
        hi = max(hi, lo + 1)
        src = np.repeat(np.arange(lo, hi), g.degrees[lo:hi])
        dst = g.neighbors[offsets[lo] : offsets[hi]]
        keep = src < dst
        lines = np.empty(int(np.count_nonzero(keep)), dtype=record)
        lines["u"] = text[src[keep]]
        lines["sp"] = b" "
        lines["v"] = text[dst[keep]]
        lines["nl"] = b"\n"
        raw = lines.view(np.uint8)
        fh.write(raw[raw != 0].tobytes().decode("ascii"))
        lo = hi


def load_graph(source) -> Graph:
    """Parse and validate the edge-list format written by save_graph.
    source is a path or an open text handle.

    After the header, each line holds either nothing or exactly two vertex
    ids separated by blanks. An id is one or more ASCII digits; a blank is a
    space, tab or carriage return; a line ends with a line feed or the end
    of the file. Any other character, such as a sign, a decimal point, an
    exponent or a comment, makes the file invalid. The header is as exact:
    n and seed are digits with an optional minus sign, and p and q unsigned
    decimals with an optional exponent, such as 0.5, 1e-05 or 2.5E+3."""
    if hasattr(source, "read"):
        return _read_graph(source)
    with open(source, "r", encoding="ascii") as fh:
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
    dtype = _key_layout(nv)[1]
    blocks = []
    tail = []  # the pieces of a line that no block has ended yet
    while chunk := fh.read(READ_BLOCK):
        # a non-ASCII character becomes "?", which the byte classes reject
        data = chunk.encode("ascii", "replace")
        cut = data.rfind(b"\n") + 1
        if cut:
            blocks.append(_parse_lines(b"".join([*tail, data[:cut]]), nv, dtype))
            tail = []
        tail.append(data[cut:])
    blocks.append(_parse_lines(b"".join(tail) + b"\n", nv, dtype))
    return _graph_from_pairs(n, blocks, p, q, seed)


def _parse_lines(data: bytes, nv: int, dtype) -> np.ndarray:
    # data is whole lines, the last one ending in a line feed; returns their
    # (u, v) pairs as an (E, 2) array of dtype
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
        return np.empty((0, 2), dtype=dtype)
    # fromstring saturates an id too long for int64 at 2**63 - 1, which the
    # range check rejects
    ids = np.fromstring(data, dtype=np.int64, sep=" ")
    if ids.size != count:
        raise ValueError(_BAD_LINE)
    if ids.max() >= nv:
        raise ValueError("edge endpoint out of range")
    return ids.astype(dtype).reshape(-1, 2)
