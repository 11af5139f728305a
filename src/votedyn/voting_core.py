"""Polynomial voting rules and synchronous update steps.

A rule is a pair of polynomials (f1, f2) mapping [0,1] to [0,1]. At each
synchronous step, a vertex v currently holding opinion 1 keeps it with
probability f1(x) and a vertex holding opinion 2 switches with probability
f2(x), where x = deg_A(v)/deg(v) is the fraction of v's neighbors holding
opinion 1. Built-in rules also carry a sampling procedure (draw a few random
neighbors with replacement and apply a majority criterion) whose outcome
distribution is the polynomial description up to the neighbor draw: the index
map floor(u*deg) on 53-bit uniforms u gives each neighbor probability 1/deg
within 2^-52, a relative deviation of at most deg*2^-52.

Isolated vertices keep their opinion forever; they still consume their random
draws so the stream layout of a step never depends on the state.

All randomness is consumed in fixed vertex order (one vectorized draw per
step), so a run is bit-reproducible given its generator.
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
    "make_rule_polynomial",
    "rule_from_name",
    "state_from_member",
    "fractions",
    "to_delta",
    "to_alpha",
    "step_probabilities",
    "step_probability",
    "step_sampling",
    "step",
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


@dataclass
class VotingRule:
    """Polynomial voting rule; coefficient lists are ascending in degree.

    sampler is None for arbitrary polynomial rules, or one of "bo2", "bo3",
    "best_of_<m>" (m odd) to enable the neighbor-sampling step path. draws is
    the sampler's neighbor samples per vertex, 0 without a sampler.
    Coefficients are fixed at construction: the arrays are read-only copies.
    """

    name: str
    f1_coeffs: np.ndarray
    f2_coeffs: np.ndarray
    sampler: str | None = None
    draws: int = field(default=0, init=False, compare=False)
    # Horner coefficients for step_probabilities: (f1, f2), or (f,) when the
    # two polynomials are bit-identical
    _horner: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        self.f1_coeffs = np.array(self.f1_coeffs, dtype=np.float64, ndmin=1)
        self.f2_coeffs = np.array(self.f2_coeffs, dtype=np.float64, ndmin=1)
        grid = np.linspace(0.0, 1.0, RANGE_GRID + 1)
        for tag, coeffs in (("f1", self.f1_coeffs), ("f2", self.f2_coeffs)):
            if coeffs.ndim != 1 or coeffs.size == 0:
                raise ValueError(f"{tag} needs a non-empty 1-d coefficient list")
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
        self.draws = 0 if self.sampler is None else _draws(self.sampler)

    def f1(self, x):
        return npoly.polyval(x, self.f1_coeffs)

    def f2(self, x):
        return npoly.polyval(x, self.f2_coeffs)


def _horner_coeffs(coeffs: np.ndarray) -> tuple:
    """Python floats, highest degree first. polyval starts from c[-1] + 0*x,
    which turns a -0.0 leading coefficient into +0.0 for every x >= 0; adding
    0.0 here does the same, so _horner matches polyval bit for bit."""
    top, *rest = coeffs[::-1].tolist()
    return (top + 0.0, *rest)


def _horner(coeffs: tuple, x: np.ndarray) -> np.ndarray:
    # polyval's operation order (c0 = c[-i] + c0*x) without its per-call
    # argument checks and numpy-scalar coefficients
    if len(coeffs) == 1:
        return np.full(x.shape, coeffs[0])
    acc = x * coeffs[0]
    acc += coeffs[1]
    for c in coeffs[2:]:
        acc *= x
        acc += c
    return acc


def make_rule_bo3() -> VotingRule:
    """Majority of three neighbor samples (with replacement): f(x)=3x^2-2x^3."""
    c = np.array([0.0, 0.0, 3.0, -2.0])
    return VotingRule(name="bo3", f1_coeffs=c, f2_coeffs=c.copy(), sampler="bo3")


def make_rule_bo2() -> VotingRule:
    """Sample two neighbors with replacement; adopt their opinion iff they
    agree, else keep your own. Retention gives f1(x)=1-(1-x)^2=2x-x^2 and
    adoption gives f2(x)=x^2."""
    return VotingRule(
        name="bo2",
        f1_coeffs=np.array([0.0, 2.0, -1.0]),
        f2_coeffs=np.array([0.0, 0.0, 1.0]),
        sampler="bo2",
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
    return VotingRule(name=f"best_of_{m}", f1_coeffs=arr, f2_coeffs=arr.copy(), sampler=f"best_of_{m}")


def make_rule_polynomial(name: str, f1_coeffs, f2_coeffs) -> VotingRule:
    """Arbitrary polynomial rule; steps use the probability path only."""
    return VotingRule(name=name, f1_coeffs=f1_coeffs, f2_coeffs=f2_coeffs, sampler=None)


# the one spelling of each best_of_<m>: no leading zeros, no non-ASCII digits
_BEST_OF_M = tuple(str(k) for k in range(3, 26, 2))


def _draws(name: str) -> int:
    """Neighbor samples per vertex of a named sampling rule: bo2, bo3, or
    best_of_<m> for odd m from 3 to 25. Rule names and sampler tags share
    this parse."""
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


def step_probability(g: Graph, s: OpinionState, rule: VotingRule, rng: np.random.Generator) -> OpinionState:
    """One synchronous step drawing each vertex against its exact probability."""
    prob = step_probabilities(g, s, rule)
    u = rng.random(g.num_vertices)
    return state_from_member(u < prob)


def step_sampling(g: Graph, s: OpinionState, rule: VotingRule, rng: np.random.Generator) -> OpinionState:
    """One synchronous step by sampling neighbors with replacement.

    Vertex v's j-th sample is neighbor floor(u[v, j] * deg(v)) of the
    (nv, m) uniform draw u; the arithmetic runs on its transpose, one
    contiguous row of nv vertices per sample.
    """
    m = rule.draws
    if not m:
        raise ValueError("rule has no sampler tag; use step_probability")
    u = rng.random((g.num_vertices, m))
    if g.neighbors.size == 0:
        return state_from_member(s.member.copy())
    isolated = g.isolated
    safe = np.maximum(g.degrees, 1) if isolated.size else g.degrees
    # u <= 1 - 2^-53 and rounding is monotone, so the rounded product u*d
    # stays below any integer d < 2^53: the index needs no clamp to d - 1
    idx = np.multiply(u.T, safe, order="C").astype(np.int64)
    idx += g.offsets[:-1]
    if isolated.size:
        # an isolated last vertex indexes one past the end; clamp, the
        # override below discards whatever isolated vertices read
        np.minimum(idx, g.neighbors.size - 1, out=idx)
    own = s.member.view(np.uint8)
    ones = own[g.neighbors[idx]].sum(axis=0, dtype=np.uint8)  # m <= 25
    threshold = m // 2
    if rule.sampler == "bo2":
        # keep the own opinion unless both samples oppose it: the majority
        # of the own vote and the two samples
        ones += own
        threshold = 1
    new = ones > threshold
    if isolated.size:
        new[isolated] = s.member[isolated]
    return state_from_member(new)


def step(g: Graph, s: OpinionState, rule: VotingRule, rng: np.random.Generator) -> OpinionState:
    """Default step path: sampling when the rule has one, else probabilities."""
    if rule.sampler is not None:
        return step_sampling(g, s, rule, rng)
    return step_probability(g, s, rule, rng)


@dataclass
class Trajectory:
    """Per-step opinion fractions and the terminal status of a run.

    records holds (t, alpha1, alpha2) for every visited state.
    """

    records: list
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
    stop=None,
) -> Trajectory:
    """Iterate steps until the opinion-1 set is empty or everything.

    Each visited state is checked in turn against stop(alpha1, alpha2), when
    given (status "stopped"), consensus (t_cons is the first such step index),
    and the budget of max_steps steps (status "timeout"). Stops and timeouts
    are results, not errors.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    nv = g.num_vertices
    records = []
    s = s0
    t = 0
    while True:
        a1, a2 = fractions(s)
        records.append((t, a1, a2))
        total = s.count1 + s.count2
        if stop is not None and stop(a1, a2):
            return Trajectory(records, STATUS_STOPPED, None, None, t)
        if total == 0 or total == nv:
            opinion = 1 if total == nv else 2
            return Trajectory(records, STATUS_CONSENSUS, opinion, t, t)
        if t == max_steps:
            return Trajectory(records, STATUS_TIMEOUT, None, None, t)
        s = step(g, s, rule, rng)
        t += 1


@dataclass(frozen=True)
class InitFamily:
    """Named initial-condition family with numeric parameters."""

    kind: str
    params: tuple = ()

    def __str__(self):
        if not self.params:
            return self.kind
        inner = ",".join(format(p, "g") for p in self.params)
        return f"{self.kind}({inner})"


def biased_global(b: float) -> InitFamily:
    """|A| = (1+b)n, split evenly across the two communities."""
    return InitFamily("biased_global", (float(b),))


def half_half() -> InitFamily:
    return InitFamily("half_half")


def clustered(d1: float, d2: float) -> InitFamily:
    """Counts matching delta coordinates: |A_i| = round(n(1+d2±d1)/2)."""
    return InitFamily("clustered", (float(d1), float(d2)))


def exact_counts(c1: int, c2: int) -> InitFamily:
    return InitFamily("exact_counts", (int(c1), int(c2)))


def random_density(rho: float) -> InitFamily:
    """Each vertex independently holds opinion 1 with probability rho."""
    return InitFamily("random_density", (float(rho),))


def parse_init_family(text: str) -> InitFamily:
    """Parse the compact form used on the command line, e.g. clustered(0.3,0.1)."""
    text = text.strip()
    if "(" not in text:
        kind, params = text, ()
    else:
        if not text.endswith(")"):
            raise ValueError(f"malformed init family: {text!r}")
        kind, inner = text[:-1].split("(", 1)
        params = tuple(float(tok) for tok in inner.split(",") if tok.strip())
    known = {"biased_global": 1, "half_half": 0, "clustered": 2, "exact_counts": 2, "random_density": 1}
    if kind not in known:
        raise ValueError(f"unknown init family: {kind!r}")
    if len(params) != known[kind]:
        raise ValueError(f"{kind} expects {known[kind]} parameter(s)")
    if kind == "exact_counts":
        params = tuple(int(p) for p in params)
    return InitFamily(kind, params)


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

    if family.kind == "biased_global":
        b = family.params[0]
        c1 = c2 = round(n * (1 + b) / 2)
    elif family.kind == "half_half":
        c1 = c2 = round(n / 2)
    elif family.kind == "clustered":
        d1, d2 = family.params
        c1 = round(n * (1 + d2 + d1) / 2)
        c2 = round(n * (1 + d2 - d1) / 2)
    elif family.kind == "exact_counts":
        c1, c2 = family.params
    else:
        raise ValueError(f"unknown init family: {family.kind!r}")

    if not (0 <= c1 <= n and 0 <= c2 <= n):
        raise ValueError(f"init family {family} needs counts in [0, {n}], got ({c1}, {c2})")
    member = np.zeros(2 * n, dtype=bool)
    _pick(rng, n, int(c1), 0, member)
    _pick(rng, n, int(c2), n, member)
    return state_from_member(member)


def write_trajectory_csv(traj: Trajectory, fh) -> None:
    """Header t,alpha1,alpha2,delta1,delta2; floats with 9 significant digits;
    a final comment line carries the terminal status."""
    fh.write("t,alpha1,alpha2,delta1,delta2\n")
    for t, a1, a2 in traj.records:
        d1, d2 = to_delta(a1, a2)
        fh.write(f"{t},{a1:.9g},{a2:.9g},{d1:.9g},{d2:.9g}\n")
    if traj.status == STATUS_CONSENSUS:
        fh.write(f"# status=consensus opinion={traj.final_opinion} t_cons={traj.t_cons}\n")
    else:
        fh.write(f"# status={traj.status} steps={traj.steps_run}\n")
