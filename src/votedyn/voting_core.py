"""Sampling voting rules and the synchronous sampling step.

A rule is its name, and VotingRule(name) builds it: each vertex draws a few
random neighbors with replacement and applies a majority criterion (bo2,
bo3, best_of_<m>), and the name fixes both. Its law follows from that
sampling procedure, held as Horner coefficients: a pair of polynomials
(f1, f2) mapping [0,1] to [0,1], where a vertex v currently
holding opinion 1 keeps it with probability f1(x) and a vertex holding
opinion 2 switches with probability f2(x), and x = deg_A(v)/deg(v) is the
fraction of v's neighbors holding opinion 1. The sampling step follows
that law up to the neighbor draw: the multiply-shift map (w*deg) >> 32 on
uniform 32-bit words w (Lemire, "Fast random integer generation in an
interval", ACM TOMACS 2019) hits each neighbor with floor(2^32/deg) or
ceil(2^32/deg) of the 2^32 words, a relative deviation from 1/deg below
deg/2^32 (1.2e-7 at degree 500).

The exact step law is read from each rule's fixed probability table on a
graph of one count block whose largest degree is at most PROB_TABLE_DEG: x
only takes the values k/d there, and the table holds the clipped law at each
of them for either opinion, computed as the Horner path computes it, so both
paths give the same bits.

Isolated vertices keep their opinion forever; they still consume their random
words so the stream layout of a step never depends on the state.

All randomness is consumed in fixed order (one raw draw of nv*m/2 64-bit
words per sampling step), so a run is bit-reproducible given its generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
import weakref

import numpy as np

from . import sbm_graph
from .sbm_graph import Graph

__all__ = [
    "STATUS_CONSENSUS",
    "STATUS_TIMEOUT",
    "STATUS_STOPPED",
    "VotingRule",
    "OpinionState",
    "Trajectory",
    "InitFamily",
    "make_rule_bo3",
    "make_rule_bo2",
    "make_rule_best_of",
    "state_from_member",
    "to_delta",
    "to_alpha",
    "step_probabilities",
    "step_sampling",
    "run_until_consensus",
    "biased_global",
    "half_half",
    "clustered",
    "exact_counts",
    "random_density",
    "parse_init_family",
    "make_initial",
    "write_trajectory_csv",
]

STATUS_CONSENSUS = "consensus"
STATUS_TIMEOUT = "timeout"
STATUS_STOPPED = "stopped"
# largest degree read from a rule's probability table. Degree d owns the
# 2(d+1) entries from d(d+1) on: the clipped law at x = k/d, k = 0..d, of a
# vertex holding opinion 2 (f2) and then of one holding opinion 1 (f1), so a
# vertex's key is d(d+1) + k + (d+1)*own; 4,160 float64 entries (32.5 KiB)
# per rule. Criterion 7's graphs (degree <= 5) sit below the cap and the
# concentration probes' dense graphs far above it, where a table grown to
# the largest degree costs more memory and time than Horner
PROB_TABLE_DEG = 63


def _table_layout() -> tuple[np.ndarray, np.ndarray]:
    # x = k / max(d, 1), the float64 division of the step_probabilities
    # fallback, and the own opinion at every entry of a table
    d = np.repeat(np.arange(PROB_TABLE_DEG + 1), 2 * np.arange(1, PROB_TABLE_DEG + 2))
    j = np.arange(d.size) - d * (d + 1)
    own = j > d
    x = (j - (d + 1) * own) / np.maximum(d, 1)
    x.setflags(write=False)
    own.setflags(write=False)
    return x, own


_TABLE_X, _TABLE_OWN = _table_layout()


@dataclass(eq=False, frozen=True)
class VotingRule:
    """The sampling rule named bo2, bo3 or best_of_<m>, built by
    VotingRule(name); the name is its only input. draws, the rule's neighbor
    samples per vertex, is parsed from the name, and the law (f1, f2)
    follows from the sampling procedure (see _law), so what a rule samples
    and what its law says cannot disagree; a name with no sampling procedure
    raises ValueError.

    A rule is frozen and everything on it is set once at construction: the
    law's one representation, its Horner coefficients, and the read-only
    probability table, which holds the law clipped to [0,1] at x = k/d for
    every degree d <= PROB_TABLE_DEG and either own opinion, laid out by
    degree, of the same size whatever the graph. Two rules compare equal
    only when they are the same object.
    """

    name: str
    draws: int = field(default=0, init=False)
    # Horner coefficients, the law's one evaluator: (f1, f2), or (f,) on a
    # majority rule, where the two are one polynomial, and _table their
    # clipped laws
    _horner: tuple = field(default=(), init=False, repr=False)
    _table: np.ndarray = field(default=None, init=False, repr=False)

    def __post_init__(self):
        m = _draws(self.name)
        # Python floats, highest degree first
        horner = tuple(tuple(map(float, reversed(c))) for c in _law(m))
        object.__setattr__(self, "draws", m)
        object.__setattr__(self, "_horner", horner)
        object.__setattr__(self, "_table", _law_table(horner))

    @property
    def sampler(self) -> str:
        # read-only alias of name for perfbench/spans.py, which parses it
        # with its own _draws; both go when the benchmark reads draws
        return self.name

    def f1(self, x):
        return _horner(self._horner[0], x)

    def f2(self, x):
        return _horner(self._horner[-1], x)


def _law(m: int) -> tuple[list[int], ...]:
    """The integer monomial coefficients, ascending in degree, of the law of
    the rule that draws m neighbor samples with replacement: (f1, f2), or
    (f,) when f1 = f2 = f. bo2 adopts its samples' opinion iff they agree,
    else keeps its own: retention f1(x) = 1-(1-x)^2 = 2x-x^2 and adoption
    f2(x) = x^2. Every odd m takes the majority of its samples, f(x) =
    Pr[Bin(m, x) > m/2], expanded with exact integer arithmetic."""
    if m == 2:
        return [0, 2, -1], [0, 0, 1]
    coeffs = [0] * (m + 1)
    for i in range(m // 2 + 1, m + 1):
        c = math.comb(m, i)
        for j in range(m - i + 1):
            coeffs[i + j] += c * math.comb(m - i, j) * (-1) ** j
    return (coeffs,)


def _law_table(horner: tuple) -> np.ndarray:
    # the read-only clipped law at every entry of _TABLE_X, f1 for a vertex
    # holding opinion 1 and f2 for one holding opinion 2, by the Horner chain
    # of the step_probabilities fallback, so every entry has its bits; degree
    # 0 holds what an isolated vertex keeps, 0.0 and then 1.0
    table = np.where(_TABLE_OWN, _horner(horner[0], _TABLE_X), _horner(horner[-1], _TABLE_X))
    table[:2] = 0.0, 1.0
    table.clip(0.0, 1.0, out=table)
    table.setflags(write=False)
    return table


def _horner(coeffs: tuple, x):
    # polyval's operation order (c0 = c[-i] + c0*x) without its per-call
    # argument checks and numpy-scalar coefficients; bit for bit the same, on
    # arrays and scalars, while the leading coefficient is non-zero
    acc = x * coeffs[0]
    acc += coeffs[1]
    for c in coeffs[2:]:
        acc *= x
        acc += c
    return acc


def make_rule_bo3() -> VotingRule:
    """Majority of three neighbor samples (with replacement): f(x)=3x^2-2x^3."""
    return VotingRule("bo3")


def make_rule_bo2() -> VotingRule:
    """Sample two neighbors with replacement; adopt their opinion iff they
    agree, else keep your own."""
    return VotingRule("bo2")


def make_rule_best_of(k: int) -> VotingRule:
    """Majority among 2k+1 neighbor samples: f(x) = Pr[Bin(2k+1, x) >= k+1]."""
    if k < 1 or 2 * k + 1 > 25:
        raise ValueError("k must satisfy 1 <= k and 2k+1 <= 25")
    return VotingRule(f"best_of_{2 * k + 1}")


# the one spelling of each best_of_<m>: no leading zeros, no non-ASCII digits
_BEST_OF_M = tuple(str(k) for k in range(3, 26, 2))


def _draws(name: str) -> int:
    """Neighbor samples per vertex of a named sampling rule: bo2, bo3, or
    best_of_<m> for odd m from 3 to 25."""
    if name in ("bo2", "bo3"):
        return int(name[2])
    m = name.removeprefix("best_of_")
    if m != name and m in _BEST_OF_M:
        return int(m)
    raise ValueError(f"unknown rule name: {name!r} (bo2, bo3, or best_of_<m> with odd m from 3 to 25)")


@dataclass(frozen=True, eq=False)
class OpinionState:
    """Vertices holding opinion 1 as a read-only boolean mask. A state is
    frozen and owns its mask, so what is derived from it stays true: the
    per-community counts are read from the mask, and _count keeps (a weak
    reference to the graph, table keys or neighbor count) of the last graph
    step_probabilities counted the state on. The graph is not kept alive by
    it, but the keys or count, at most 8 B per vertex, live as long as the
    state. Two states compare equal only when they are the same object.

    The mask must be a read-only 1-d bool array of even length that owns
    its data, as state_from_member makes; any other raises ValueError."""

    member: np.ndarray
    _count: tuple = field(default=(None, None), init=False, repr=False)

    def __post_init__(self):
        # a writeable mask, or a view of one, could change under the memo
        m = self.member
        if not (
            isinstance(m, np.ndarray)
            and m.dtype == np.bool_
            and m.ndim == 1
            and m.size % 2 == 0
            and not m.flags.writeable
            and m.flags.owndata
        ):
            raise ValueError("a state needs a read-only 1-d bool mask of even length that owns its data")

    @property
    def n(self) -> int:
        return self.member.size // 2

    @property
    def count1(self) -> int:
        return int(np.count_nonzero(self.member[: self.n]))

    @property
    def count2(self) -> int:
        return int(np.count_nonzero(self.member[self.n :]))


def state_from_member(member) -> OpinionState:
    """The state of a 1-d bool mask of even length, 2n vertices, copied to a
    read-only array, so changing the caller's array leaves the state as it
    was. A mask of any other type or shape raises ValueError."""
    member = np.array(member)
    if member.dtype != np.bool_ or member.ndim != 1 or member.size % 2:
        raise ValueError(f"a state needs a 1-d bool mask of even length, got {member.dtype} of shape {member.shape}")
    return _own_state(member)


def _own_state(member: np.ndarray) -> OpinionState:
    # the state of a fresh 1-d bool mask of even length that nothing else
    # holds, made read-only in place without a copy
    member.setflags(write=False)
    return OpinionState(member)


def to_delta(a1: float, a2: float) -> tuple[float, float]:
    return a1 - a2, a1 + a2 - 1.0


def to_alpha(d1, d2):
    """Inverse of to_delta with no range check; scalars or arrays."""
    return (1.0 + d2 + d1) / 2.0, (1.0 + d2 - d1) / 2.0


def _check_size(g: Graph, s: OpinionState) -> None:
    if s.member.size != g.num_vertices:
        raise ValueError(f"the state has {s.member.size} vertices, the graph {g.num_vertices}")


def _key_ids(g: Graph):
    # on a graph of at most BUILD_BLOCK neighbor entries and degrees at most
    # PROB_TABLE_DEG, the intp ids of each vertex's neighbors and then d+1
    # copies of its own, a writeable copy of their segment starts
    # 2*offsets[v] + v (reduceat copies a read-only index array on every
    # call) and the bases d(d+1): a segment's votes plus its base are the
    # vertex's table key. False on any other graph. Made by the graph's first
    # call and kept, at most 16 B per entry and 24 B per vertex
    ids, offsets, deg = g.neighbors, g.offsets[:-1], g.degrees
    # count_nonzero rather than max, a reduction that costs 1 us on 6 vertices
    if ids.size > sbm_graph.BUILD_BLOCK or np.count_nonzero(deg > PROB_TABLE_DEG):
        keys = False
    else:
        v = np.arange(deg.size)
        lo = offsets + v
        d1 = deg + 1
        key_ids = v.repeat(deg + d1)
        # neighbor entry j of vertex v goes to lo[v] + j - offsets[v]
        at = lo.repeat(deg)
        at += np.arange(ids.size)
        key_ids.put(at, ids)
        keys = (key_ids, lo + offsets, deg * d1)
    object.__setattr__(g, "_key_ids", keys)
    return keys


def step_probabilities(g: Graph, s: OpinionState, rule: VotingRule) -> np.ndarray:
    """Exact per-vertex probability of holding opinion 1 after one step.

    A graph of at most BUILD_BLOCK neighbor entries whose degrees are at
    most PROB_TABLE_DEG gathers the law from the rule's table by each
    vertex's key d(d+1) + count + (d+1)*own, one reduceat of the state's
    mask over the graph's key ids; any other graph evaluates it by Horner's
    rule at count/degree. Both give the same bits. The keys, or the count,
    of s on g are made once and kept with s, so further calls on the same
    graph, under any rule, reuse them without checking the state again."""
    graph, known = s._count
    if graph is None or graph() is not g:
        # a weak reference: a freed graph reads None, so its id cannot match
        _check_size(g, s)
        keys = g._key_ids
        if keys is None:
            keys = _key_ids(g)
        if keys is False:
            known = g.count_in(s.member)
        else:
            # intp keys: take converts int32 ones on every call
            known = keys[2] + sbm_graph._count_ids(s.member, keys[0], keys[1])
        object.__setattr__(s, "_count", (weakref.ref(g), known))
    if g._key_ids is not False:
        return rule._table.take(known)
    member = s.member
    deg = g.degrees
    isolated = g.isolated
    x = known / (np.maximum(deg, 1) if isolated.size else deg)
    prob = _horner(rule._horner[0], x)
    if len(rule._horner) == 2:
        np.copyto(prob, _horner(rule._horner[1], x), where=~member)
    prob.clip(0.0, 1.0, out=prob)
    if isolated.size:
        prob[isolated] = member[isolated]
    return prob


def step_sampling(g: Graph, s: OpinionState, rule: VotingRule, rng: np.random.Generator) -> OpinionState:
    """One synchronous step by sampling neighbors with replacement.

    The step draws nv*m/2 raw 64-bit words from the bit generator (nv = 2n is
    even) and reads them as nv*m 32-bit words, low half first, in (m, nv)
    layout: row j holds every vertex's j-th sample, so the word order is the
    same on every platform. Vertex v's sample with word w is its neighbor
    (w * deg(v)) >> 32, each neighbor hit with probability 1/deg(v) within a
    relative deg(v)/2^32.
    """
    _check_size(g, s)
    m = rule.draws
    nv = g.num_vertices
    raw = rng.bit_generator.random_raw(nv * m // 2)
    if g.neighbors.size == 0:
        # every vertex is isolated and keeps its opinion: the state itself
        return s
    words = raw.astype("<u8", copy=False).view("<u4").reshape(m, nv)
    # w < 2^32 and deg < 2n <= 2^25 (sbm_graph.MAX_N caps n), so the int64
    # product w * deg stays below 2^63
    idx = words * g.degrees
    idx >>= 32
    idx += g.offsets[:-1]
    isolated = g.isolated
    if isolated.size:
        # an isolated last vertex indexes one past the end; clamp, the
        # override below discards whatever isolated vertices read
        np.minimum(idx, g.neighbors.size - 1, out=idx)
    own = s.member.view(np.uint8)
    # take converts int32 ids to intp; a plain own[ids] would do so at half speed
    ones = own.take(g.neighbors[idx]).sum(axis=0, dtype=np.uint8)  # m <= 25
    threshold = m // 2
    if m == 2:
        # bo2, the only 2-draw rule, keeps the own opinion unless both
        # samples oppose it: the majority of the own vote and the samples
        ones += own
        threshold = 1
    new = ones > threshold
    if isolated.size:
        new[isolated] = s.member[isolated]
    return _own_state(new)


@dataclass
class Trajectory:
    """The terminal status of a run; the states it visited went to the
    observer, if any, and are not kept."""

    status: str
    final_opinion: int | None
    t_cons: int | None
    steps_run: int


def run_until_consensus(
    g: Graph,
    s0: OpinionState,
    rule: VotingRule,
    max_steps: int,
    rng: np.random.Generator,
    observe=None,
) -> Trajectory:
    """Iterate steps until the opinion-1 set is empty or everything.

    Each visited state is passed to observe(t, alpha1, alpha2), when given,
    and a true return ends the run (status "stopped"); then come consensus
    (t_cons is the first such step index) and the budget of max_steps steps
    (status "timeout"). Stops and timeouts are results, not errors. The loop
    keeps nothing per step.
    """
    if sbm_graph._require_int("max_steps", max_steps) < 0:
        raise ValueError("max_steps must be >= 0")
    _check_size(g, s0)
    n, nv = g.n, g.num_vertices
    s = s0
    t = 0
    while True:
        c1, c2 = s.count1, s.count2
        if observe is not None and observe(t, c1 / n, c2 / n):
            return Trajectory(STATUS_STOPPED, None, None, t)
        total = c1 + c2
        if total == 0 or total == nv:
            opinion = 1 if total == nv else 2
            return Trajectory(STATUS_CONSENSUS, opinion, t, t)
        if t == max_steps:
            return Trajectory(STATUS_TIMEOUT, None, None, t)
        s = step_sampling(g, s, rule, rng)
        t += 1


# each initial-condition family's parameter count, and whether its
# parameters are exact integer counts
_INIT_KINDS = {
    "biased_global": (1, False),
    "half_half": (0, False),
    "clustered": (2, False),
    "exact_counts": (2, True),
    "random_density": (1, False),
}


@dataclass(frozen=True)
class InitFamily:
    """Named initial-condition family with as many finite numeric parameters
    as _INIT_KINDS gives its kind; an integral count is stored as an int, a
    fractional one is rejected, not rounded. Any other raises ValueError."""

    kind: str
    params: tuple = ()

    def __post_init__(self):
        if self.kind not in _INIT_KINDS:
            raise ValueError(f"unknown init family: {self.kind!r}")
        arity, counts = _INIT_KINDS[self.kind]
        if len(self.params) != arity:
            raise ValueError(f"{self.kind} expects {arity} parameter(s)")
        # chained comparisons: math.isfinite overflows on a huge int
        if not all(-math.inf < x < math.inf for x in self.params):
            raise ValueError(f"init family {self} needs finite parameters")
        if counts:
            if not all(isinstance(c, (int, np.integer)) or float(c).is_integer() for c in self.params):
                raise ValueError(f"{self.kind} needs integer counts, got {self.params}")
            object.__setattr__(self, "params", tuple(map(int, self.params)))

    def __str__(self):
        if not self.params:
            return self.kind
        # an integer prints exactly, so every exact_counts label reads back
        inner = ",".join(str(p) if isinstance(p, (int, np.integer)) else format(p, "g") for p in self.params)
        return f"{self.kind}({inner})"


def biased_global(b: float) -> InitFamily:
    """|A| = (1+b)n, split evenly across the two communities."""
    return InitFamily("biased_global", (float(b),))


def half_half() -> InitFamily:
    return InitFamily("half_half")


def clustered(d1: float, d2: float) -> InitFamily:
    """Counts matching delta coordinates: |A_i| = round(n*alpha_i), with
    (alpha_1, alpha_2) = to_alpha(d1, d2)."""
    return InitFamily("clustered", (float(d1), float(d2)))


def exact_counts(c1: int, c2: int) -> InitFamily:
    """Exact per-community counts; a fractional count is rejected, not rounded."""
    return InitFamily("exact_counts", (c1, c2))


def random_density(rho: float) -> InitFamily:
    """Each vertex independently holds opinion 1 with probability rho."""
    return InitFamily("random_density", (float(rho),))


def parse_init_family(text: str) -> InitFamily:
    """Parse the compact form used on the command line, e.g. clustered(0.3,0.1)."""
    text = text.strip()
    if "(" not in text:
        kind, tokens = text, []
    else:
        if not text.endswith(")"):
            raise ValueError(f"malformed init family: {text!r}")
        kind, inner = text[:-1].split("(", 1)
        tokens = [tok for tok in inner.split(",") if tok.strip()]
    counts = _INIT_KINDS.get(kind, (0, False))[1]
    return InitFamily(kind, tuple(map(_count if counts else float, tokens)))


def _count(token: str) -> int | float:
    # an integer token keeps its exact value, which a float rounds above 2**53
    try:
        return int(token)
    except ValueError:
        return float(token)


def _pick(rng: np.random.Generator, n: int, count: int, base: int, member: np.ndarray) -> None:
    member[base + rng.permutation(n)[:count]] = True


def make_initial(g: Graph, family: InitFamily, rng: np.random.Generator) -> OpinionState:
    """Deterministic given (family, generator state). Count-based families
    choose members uniformly at random within each community."""
    n = g.n
    if family.kind == "random_density":
        rho = family.params[0]
        if not 0.0 <= rho <= 1.0:
            raise ValueError("density must lie in [0,1]")
        return _own_state(rng.random(2 * n) < rho)

    if family.kind == "exact_counts":
        c1, c2 = family.params
    else:
        if family.kind == "biased_global":
            a1 = a2 = (1 + family.params[0]) / 2
        elif family.kind == "half_half":
            a1 = a2 = 0.5
        else:
            a1, a2 = to_alpha(*family.params)
        # a huge finite parameter takes n*a to inf, which round() refuses
        c1, c2 = (round(x) if math.isfinite(x) else x for x in (n * a1, n * a2))

    if not (0 <= c1 <= n and 0 <= c2 <= n):
        raise ValueError(f"init family {family} needs counts in [0, {n}], got ({c1}, {c2})")
    member = np.zeros(2 * n, dtype=bool)
    _pick(rng, n, int(c1), 0, member)
    _pick(rng, n, int(c2), n, member)
    return _own_state(member)


def write_trajectory_csv(
    g: Graph, s0: OpinionState, rule: VotingRule, max_steps: int, rng: np.random.Generator, fh
) -> Trajectory:
    """Run until consensus and write the trajectory as it goes: header
    t,alpha1,alpha2,delta1,delta2, one row per visited state with floats to 9
    significant digits, and a final comment line with the terminal status."""
    fh.write("t,alpha1,alpha2,delta1,delta2\n")

    def row(t, a1, a2):
        d1, d2 = to_delta(a1, a2)
        fh.write(f"{t},{a1:.9g},{a2:.9g},{d1:.9g},{d2:.9g}\n")

    traj = run_until_consensus(g, s0, rule, max_steps, rng, observe=row)
    if traj.status == STATUS_CONSENSUS:
        fh.write(f"# status=consensus opinion={traj.final_opinion} t_cons={traj.t_cons}\n")
    else:
        fh.write(f"# status={traj.status} steps={traj.steps_run}\n")
    return traj
