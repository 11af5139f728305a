"""Sampling voting rules and the synchronous sampling step.

Every rule is a sampling procedure: each vertex draws a few random neighbors
with replacement and applies a majority criterion (bo2, bo3, best_of_<m>).
Its law is a pair of polynomials (f1, f2) mapping [0,1] to [0,1]: a vertex v
currently holding opinion 1 keeps it with probability f1(x) and a vertex
holding opinion 2 switches with probability f2(x), where x = deg_A(v)/deg(v)
is the fraction of v's neighbors holding opinion 1. The sampling step follows
that law up to the neighbor draw: the multiply-shift map (w*deg) >> 32 on
uniform 32-bit words w (Lemire, "Fast random integer generation in an
interval", ACM TOMACS 2019) hits each neighbor with floor(2^32/deg) or
ceil(2^32/deg) of the 2^32 words, a relative deviation from 1/deg below
deg/2^32 (1.2e-7 at degree 500).

Isolated vertices keep their opinion forever; they still consume their random
words so the stream layout of a step never depends on the state.

All randomness is consumed in fixed order (one raw draw of nv*m/2 64-bit
words per sampling step), so a run is bit-reproducible given its generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np
from numpy.polynomial import polynomial as npoly

from .sbm_graph import Graph

__all__ = [
    "VotingRule",
    "OpinionState",
    "Trajectory",
    "InitFamily",
    "make_rule_bo3",
    "make_rule_bo2",
    "make_rule_best_of",
    "rule_from_name",
    "state_from_member",
    "fractions",
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

RANGE_GRID = 1000  # rule range check resolution at construction
STATUS_CONSENSUS = "consensus"
STATUS_TIMEOUT = "timeout"
STATUS_STOPPED = "stopped"


@dataclass(eq=False)
class VotingRule:
    """Sampling rule named bo2, bo3 or best_of_<m>, with the polynomials of
    its law; coefficient lists are ascending in degree.

    draws is the rule's neighbor samples per vertex, parsed from name, so a
    rule that cannot sample cannot be built. Coefficients are fixed at
    construction: the arrays are read-only copies with at least 2 entries.
    Two rules compare equal only when they are the same object.
    """

    name: str
    f1_coeffs: np.ndarray
    f2_coeffs: np.ndarray
    draws: int = field(default=0, init=False)
    # Horner coefficients for step_probabilities: (f1, f2), or (f,) when the
    # two polynomials are bit-identical
    _horner: tuple = field(default=(), init=False, repr=False)

    def __post_init__(self):
        self.draws = _draws(self.name)
        self.f1_coeffs = np.array(self.f1_coeffs, dtype=np.float64, ndmin=1)
        self.f2_coeffs = np.array(self.f2_coeffs, dtype=np.float64, ndmin=1)
        grid = np.linspace(0.0, 1.0, RANGE_GRID + 1)
        for tag, coeffs in (("f1", self.f1_coeffs), ("f2", self.f2_coeffs)):
            if coeffs.ndim != 1 or coeffs.size < 2:
                raise ValueError(f"{tag} needs a 1-d list of at least 2 coefficients")
            coeffs.setflags(write=False)
            vals = npoly.polyval(grid, coeffs)
            # slack grows with the Horner forward-error bound so that exact
            # high-degree rules with huge alternating coefficients still pass
            slack = max(1e-9, 2 * len(coeffs) * np.finfo(np.float64).eps * np.abs(coeffs).sum())
            if vals.min() < -slack or vals.max() > 1 + slack:
                raise ValueError(f"{tag} leaves [0,1] on the probability grid")
        f1 = _horner_coeffs(self.f1_coeffs)
        if self.f1_coeffs.tobytes() == self.f2_coeffs.tobytes():
            self._horner = (f1,)
        else:
            self._horner = (f1, _horner_coeffs(self.f2_coeffs))

    @property
    def sampler(self) -> str:
        # read-only alias of name for perfbench/spans.py, which parses it
        # with its own _draws; both go when the benchmark reads draws
        return self.name

    def f1(self, x):
        return npoly.polyval(x, self.f1_coeffs)

    def f2(self, x):
        return npoly.polyval(x, self.f2_coeffs)


def _horner_coeffs(coeffs: np.ndarray) -> tuple:
    """Python floats, highest degree first."""
    return tuple(coeffs[::-1].tolist())


def _horner(coeffs: tuple, x: np.ndarray) -> np.ndarray:
    # polyval's operation order (c0 = c[-i] + c0*x) without its per-call
    # argument checks and numpy-scalar coefficients; bit for bit the same
    # while the leading coefficient is non-zero, as in every built-in rule
    acc = x * coeffs[0]
    acc += coeffs[1]
    for c in coeffs[2:]:
        acc *= x
        acc += c
    return acc


def make_rule_bo3() -> VotingRule:
    """Majority of three neighbor samples (with replacement): f(x)=3x^2-2x^3."""
    c = np.array([0.0, 0.0, 3.0, -2.0])
    return VotingRule(name="bo3", f1_coeffs=c, f2_coeffs=c.copy())


def make_rule_bo2() -> VotingRule:
    """Sample two neighbors with replacement; adopt their opinion iff they
    agree, else keep your own. Retention gives f1(x)=1-(1-x)^2=2x-x^2 and
    adoption gives f2(x)=x^2."""
    return VotingRule(
        name="bo2",
        f1_coeffs=np.array([0.0, 2.0, -1.0]),
        f2_coeffs=np.array([0.0, 0.0, 1.0]),
    )


def make_rule_best_of(k: int) -> VotingRule:
    """Majority among 2k+1 neighbor samples: f(x) = Pr[Bin(2k+1, x) >= k+1],
    expanded to monomial coefficients with exact integer arithmetic."""
    if k < 1 or 2 * k + 1 > 25:
        raise ValueError("k must satisfy 1 <= k and 2k+1 <= 25")
    m = 2 * k + 1
    coeffs = [0] * (m + 1)
    for i in range(k + 1, m + 1):
        c = math.comb(m, i)
        for j in range(m - i + 1):
            coeffs[i + j] += c * math.comb(m - i, j) * (-1) ** j
    arr = np.array(coeffs, dtype=np.float64)
    return VotingRule(name=f"best_of_{m}", f1_coeffs=arr, f2_coeffs=arr.copy())


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


def rule_from_name(name: str) -> VotingRule:
    """The sampling rule named bo3, bo2, or best_of_<m>."""
    m = _draws(name)
    if name == "bo3":
        return make_rule_bo3()
    if name == "bo2":
        return make_rule_bo2()
    return make_rule_best_of((m - 1) // 2)


@dataclass
class OpinionState:
    """Vertices holding opinion 1 as a boolean mask, with per-community counts."""

    member: np.ndarray
    count1: int
    count2: int

    @property
    def n(self) -> int:
        return self.member.size // 2


def state_from_member(member: np.ndarray) -> OpinionState:
    member = np.asarray(member, dtype=bool)
    n = member.size // 2
    return OpinionState(
        member=member,
        count1=int(np.count_nonzero(member[:n])),
        count2=int(np.count_nonzero(member[n:])),
    )


def fractions(s: OpinionState) -> tuple[float, float]:
    return s.count1 / s.n, s.count2 / s.n


def to_delta(a1: float, a2: float) -> tuple[float, float]:
    return a1 - a2, a1 + a2 - 1.0


def to_alpha(d1, d2):
    """Inverse of to_delta with no range check; scalars or arrays."""
    return (1.0 + d2 + d1) / 2.0, (1.0 + d2 - d1) / 2.0


def step_probabilities(g: Graph, s: OpinionState, rule: VotingRule) -> np.ndarray:
    """Exact per-vertex probability of holding opinion 1 after one step."""
    deg = g.degrees
    isolated = g.isolated
    x = g.count_in(s.member) / (np.maximum(deg, 1) if isolated.size else deg)
    prob = _horner(rule._horner[0], x)
    if len(rule._horner) == 2:
        np.copyto(prob, _horner(rule._horner[1], x), where=~s.member)
    if isolated.size:
        prob[isolated] = s.member[isolated]
    return prob.clip(0.0, 1.0, out=prob)


def step_sampling(g: Graph, s: OpinionState, rule: VotingRule, rng: np.random.Generator) -> OpinionState:
    """One synchronous step by sampling neighbors with replacement.

    The step draws nv*m/2 raw 64-bit words from the bit generator (nv = 2n is
    even) and reads them as nv*m 32-bit words, low half first, in (m, nv)
    layout: row j holds every vertex's j-th sample, so the word order is the
    same on every platform. Vertex v's sample with word w is its neighbor
    (w * deg(v)) >> 32, each neighbor hit with probability 1/deg(v) within a
    relative deg(v)/2^32.
    """
    m = rule.draws
    nv = g.num_vertices
    raw = rng.bit_generator.random_raw(nv * m // 2)
    if g.neighbors.size == 0:
        return state_from_member(s.member.copy())
    words = raw.astype("<u8", copy=False).view("<u4").reshape(m, nv)
    # deg < 2^31, so the int64 product w * deg stays below 2^63
    idx = words * g.degrees
    idx >>= 32
    idx += g.offsets[:-1]
    isolated = g.isolated
    if isolated.size:
        # an isolated last vertex indexes one past the end; clamp, the
        # override below discards whatever isolated vertices read
        np.minimum(idx, g.neighbors.size - 1, out=idx)
    own = s.member.view(np.uint8)
    ones = own[g.neighbors[idx]].sum(axis=0, dtype=np.uint8)  # m <= 25
    threshold = m // 2
    if m == 2:
        # bo2, the only 2-draw rule, keeps the own opinion unless both
        # samples oppose it: the majority of the own vote and the samples
        ones += own
        threshold = 1
    new = ones > threshold
    if isolated.size:
        new[isolated] = s.member[isolated]
    return state_from_member(new)


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
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    nv = g.num_vertices
    s = s0
    t = 0
    while True:
        total = s.count1 + s.count2
        if observe is not None and observe(t, *fractions(s)):
            return Trajectory(STATUS_STOPPED, None, None, t)
        if total == 0 or total == nv:
            opinion = 1 if total == nv else 2
            return Trajectory(STATUS_CONSENSUS, opinion, t, t)
        if t == max_steps:
            return Trajectory(STATUS_TIMEOUT, None, None, t)
        s = step_sampling(g, s, rule, rng)
        t += 1


@dataclass(frozen=True)
class InitFamily:
    """Named initial-condition family with finite numeric parameters."""

    kind: str
    params: tuple = ()

    def __post_init__(self):
        # chained comparisons: math.isfinite overflows on a huge int
        if not all(-math.inf < x < math.inf for x in self.params):
            raise ValueError(f"init family {self} needs finite parameters")

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
    if not all(isinstance(c, (int, np.integer)) or float(c).is_integer() for c in (c1, c2)):
        raise ValueError(f"exact_counts needs integer counts, got ({c1}, {c2})")
    return InitFamily("exact_counts", (int(c1), int(c2)))


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
    known = {"biased_global": 1, "half_half": 0, "clustered": 2, "exact_counts": 2, "random_density": 1}
    if kind not in known:
        raise ValueError(f"unknown init family: {kind!r}")
    if len(tokens) != known[kind]:
        raise ValueError(f"{kind} expects {known[kind]} parameter(s)")
    if kind == "exact_counts":
        return exact_counts(*map(_count, tokens))
    return InitFamily(kind, tuple(map(float, tokens)))


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
        return state_from_member(rng.random(2 * n) < rho)

    if family.kind == "exact_counts":
        c1, c2 = family.params
    else:
        if family.kind == "biased_global":
            a1 = a2 = (1 + family.params[0]) / 2
        elif family.kind == "half_half":
            a1 = a2 = 0.5
        elif family.kind == "clustered":
            a1, a2 = to_alpha(*family.params)
        else:
            raise ValueError(f"unknown init family: {family.kind!r}")
        # a huge finite parameter takes n*a to inf, which round() refuses
        c1, c2 = (round(x) if math.isfinite(x) else x for x in (n * a1, n * a2))

    if not (0 <= c1 <= n and 0 <= c2 <= n):
        raise ValueError(f"init family {family} needs counts in [0, {n}], got ({c1}, {c2})")
    member = np.zeros(2 * n, dtype=bool)
    _pick(rng, n, int(c1), 0, member)
    _pick(rng, n, int(c2), n, member)
    return state_from_member(member)


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
