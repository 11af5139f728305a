"""Two-community stochastic block model graphs and degree statistics.

Vertices 0..n-1 form community 1 and n..2n-1 form community 2. Each
intra-community pair is an edge independently with probability p, each
cross-community pair with probability q, where 0 <= q <= p <= 1.

Randomness comes from numpy's Philox generator (counter based, 64-bit words)
keyed directly by the seed, so identical seeds give identical graphs on every
platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
import warnings

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

    Two graphs compare equal only when they are the same object.

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
        isolated = np.flatnonzero(degrees == 0)
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


def _unrank_intra(k: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    # invert the lexicographic pair index: pairs (i,j), i<j<size, index
    # base(i) = i(2*size-1-i)/2, then j = i+1+(k-base(i))
    kk = k.astype(np.float64)
    b = 2 * size - 1
    i = np.floor((b - np.sqrt(b * b - 8.0 * kk)) / 2.0).astype(np.int64)
    # float sqrt can land one off at block boundaries; fix with integer math
    base = i * (2 * size - 1 - i) // 2
    too_far = base > k
    i[too_far] -= 1
    base_next = (i + 1) * (2 * size - 2 - i) // 2
    behind = base_next <= k
    i[behind] += 1
    base = i * (2 * size - 1 - i) // 2
    j = k - base + i + 1
    return i, j


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
        want = int((m - pos) * prob * 1.1) + 64
        u = rng.random(want)
        gaps = np.floor(np.maximum(np.log1p(-u), log_cap) / log_skip).astype(np.int64) + 1
        hits = pos + np.cumsum(gaps)
        pos = int(hits[-1])
        chunks.append(hits[hits < m])
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)


def _directed_keys(u: np.ndarray, v: np.ndarray, nv: int) -> tuple[np.ndarray, np.ndarray]:
    return u * nv + v, v * nv + u


def _graph_from_keys(n: int, keys: np.ndarray, p: float, q: float, seed: int) -> Graph:
    # keys are the directed edge keys u*2n+v, both directions of every edge;
    # one in-place sort orders them by (u, v), so two equal adjacent keys are
    # a duplicate edge, and the keys themselves become the neighbor array
    nv = 2 * n
    keys.sort()
    if np.any(keys[1:] == keys[:-1]):
        raise ValueError("duplicate edges are not allowed")
    offsets = np.searchsorted(keys, np.arange(nv + 1, dtype=np.int64) * nv)
    keys %= nv
    return Graph(n=n, offsets=offsets, neighbors=keys, p=p, q=q, seed=seed)


def generate_sbm(n: int, p: float, q: float, seed: int) -> Graph:
    """Sample G(2n, p, q) deterministically from the seed.

    Blocks are drawn in a fixed order (community 1 pairs, community 2 pairs,
    cross pairs) from one Philox stream. Within a block the sampler skips
    geometrically from edge to edge, drawing about one uniform per edge, so
    its cost follows the edge count rather than the pair count. Each block's
    edges are kept only as their two directed keys u*2n+v, and one sort of
    all keys builds the graph.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if q > p:
        raise ValueError("q must not exceed p")
    if not (0.0 <= q and p <= 1.0):
        raise ValueError("edge probabilities must satisfy 0 <= q <= p <= 1")
    rng = np.random.Generator(np.random.Philox(key=seed))
    nv = 2 * n
    m_intra = n * (n - 1) // 2
    keys = []
    for base in (0, n):
        i, j = _unrank_intra(_pair_indices_geometric(rng, m_intra, p), n)
        keys += _directed_keys(i + base, j + base, nv)
    k = _pair_indices_geometric(rng, n * n, q)
    keys += _directed_keys(k // n, n + k % n, nv)
    return _graph_from_keys(n, np.concatenate(keys), p, q, seed)


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
    pairs, each edge once in either orientation."""
    nv = 2 * n
    arr = np.asarray(edges, dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("each edge must be exactly two integer vertex ids")
    if arr.size and (arr.min() < 0 or arr.max() >= nv):
        raise ValueError("edge endpoint out of range")
    u, v = arr.T
    if np.any(u == v):
        raise ValueError("self loops are not allowed")
    return _graph_from_keys(n, np.concatenate(_directed_keys(u, v, nv)), p, q, seed)


def save_graph(g: Graph, dest) -> None:
    """Edge-list text format: header `sbm n p q seed`, one `u v` line per
    undirected edge with u < v. dest is a path or an open text handle."""
    if hasattr(dest, "write"):
        _write_graph(g, dest)
        return
    with open(dest, "w", encoding="ascii") as fh:
        _write_graph(g, fh)


def _write_graph(g: Graph, fh) -> None:
    fh.write(f"sbm {g.n} {g.p!r} {g.q!r} {g.seed}\n")
    src = np.repeat(np.arange(g.num_vertices), g.degrees)
    keep = src < g.neighbors
    flat = np.column_stack((src[keep], g.neighbors[keep])).ravel().tolist()
    fh.write("%d %d\n" * g.num_edges % tuple(flat))


def load_graph(source) -> Graph:
    """Parse and validate the edge-list format written by save_graph.
    source is a path or an open text handle."""
    if hasattr(source, "read"):
        return _read_graph(source)
    with open(source, "r", encoding="ascii") as fh:
        return _read_graph(fh)


def _read_graph(fh) -> Graph:
    header = fh.readline().split()
    if len(header) != 5 or header[0] != "sbm":
        raise ValueError("bad header: expected `sbm n p q seed`")
    n, p, q, seed = int(header[1]), float(header[2]), float(header[3]), int(header[4])
    if n < 1 or not (0.0 <= q <= p <= 1.0):
        raise ValueError("header violates 0 <= q <= p <= 1, n >= 1")
    with warnings.catch_warnings():
        # a header-only file is a valid graph without edges
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        edges = np.loadtxt(fh, dtype=np.int64, comments=None, ndmin=2)
    return graph_from_edges(n, edges, p=p, q=q, seed=seed)
