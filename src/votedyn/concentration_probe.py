"""Empirical concentration diagnostics on generated graphs.

Two families of probes:

* W-statistics: W(S0; S1..Sl) = sum over s in S0 of the product of deg_Si(s),
  compared against the independent-edges ideal W-hat, normalized by
  N(Np)^(l-1/2) with N = 2n and p the larger edge probability.

* Goodness probes: normalized discrepancies between per-vertex sums of
  f(deg_A(v)/deg(v)) and their community-level ideals |S∩V_i| f(z_i) with
  z_i = (|A_i| p + |A_{3-i}| q)/(n(p+q)), at the two scales sqrt(n/p) and
  |A| sqrt(ln n/(np)), plus the one-step variance of |A'_i| against its
  two-term polynomial ideal.

These quantify over all subsets in principle; the scans sample random and
structured families and report empirical constants. Logs are natural.
"""

from __future__ import annotations

import math

import numpy as np

from .sbm_graph import Graph
from .voting_core import VotingRule, state_from_member, step_probabilities

__all__ = [
    "w_stat",
    "w_hat",
    "w_concentration_scan",
    "p2_scan",
    "p3_scan",
    "variance_profile",
    "goodness_report",
]


def _as_mask(nv: int, s) -> np.ndarray:
    s = np.asarray(s)
    if s.dtype == bool:
        if s.size != nv:
            raise ValueError("mask length does not match vertex count")
        return s
    mask = np.zeros(nv, dtype=bool)
    mask[s.astype(np.int64)] = True
    return mask


def w_stat(g: Graph, s0, sets) -> float:
    """Exact crossing-star count: sum over s0 of the product of per-set degrees.
    A set object that appears more than once in sets is counted once."""
    if len(sets) < 1:
        raise ValueError("need at least one set")
    nv = g.num_vertices
    prod = np.ones(nv, dtype=np.int64)
    counts = {}
    for s in sets:
        if id(s) not in counts:
            counts[id(s)] = g.count_in(_as_mask(nv, s))
        prod *= counts[id(s)]
    return float(prod[_as_mask(nv, s0)].sum())


def w_hat(n: int, p: float, q: float, s0, sets) -> float:
    """Ideal W under independent edges: expected degrees use the per-community
    membership counts of each set, excluding the vertex itself."""
    if len(sets) < 1:
        raise ValueError("need at least one set")
    nv = 2 * n
    own = np.empty(nv, dtype=np.float64)
    other = np.empty(nv, dtype=np.float64)
    prod = np.ones(nv, dtype=np.float64)
    for s in sets:
        mask = _as_mask(nv, s)
        c1 = int(np.count_nonzero(mask[:n]))
        c2 = int(np.count_nonzero(mask[n:]))
        own[:n], own[n:] = c1, c2
        other[:n], other[n:] = c2, c1
        prod = prod * ((own - mask) * p + other * q)
    return float(prod[_as_mask(nv, s0)].sum())


def _mask_pool(g: Graph, rng: np.random.Generator) -> list[np.ndarray]:
    nv = g.num_vertices
    small = max(1, math.isqrt(nv))
    front = np.zeros(nv, dtype=bool)
    front[:small] = True
    rand_small = np.zeros(nv, dtype=bool)
    rand_small[rng.permutation(nv)[:small]] = True
    v1 = np.zeros(nv, dtype=bool)
    v1[: g.n] = True
    return [np.ones(nv, dtype=bool), v1, ~v1, front, rand_small]


def _check_graph(g: Graph) -> None:
    # every probe normalizes by p, and the small-set scale by ln n
    if g.n < 2 or g.p == 0:
        raise ValueError("the probes need n >= 2 and p > 0")


def _check_samples(samples: int) -> None:
    if samples < 1:
        raise ValueError("samples must be >= 1")


def _check_order(l: int) -> None:
    if l not in (1, 2, 3):
        raise ValueError("l must be 1, 2, or 3")


def _positive_finite(name: str, value: float) -> float:
    # a normaliser that underflows to 0 or overflows to inf would end a
    # probe in a division by zero or report a silent 0.0
    if not 0.0 < value < math.inf:
        raise ValueError(f"the probe normaliser {name} = {value!r} is not a positive finite number")
    return value


def _w_norm(g: Graph, l: int) -> float:
    nv = g.num_vertices
    return _positive_finite(f"N(Np)^({l}-1/2)", nv * (nv * g.p) ** (l - 0.5))


def _sqrt_norm(g: Graph) -> float:
    return _positive_finite("sqrt(n/p)", math.sqrt(g.n / g.p))


def _p3_norms(g: Graph, sizes: list[int]) -> list[float]:
    scale = math.sqrt(math.log(g.n) / (g.n * g.p))
    return [_positive_finite("|A| sqrt(ln n/(np))", size * scale) for size in sizes]


def _p3_sizes(g: Graph, sizes) -> list[int]:
    """The small-set probe's |A| values: the given sizes, each in [1, 2n], or
    by default {sqrt(n), n/ln n, 0.01*2n}."""
    nv = g.num_vertices
    n = g.n
    if sizes is None:
        sizes = [
            max(1, round(math.sqrt(n))),
            max(1, round(n / math.log(n))),
            max(1, round(0.01 * nv)),
        ]
    sizes = [int(s) for s in sizes]
    if any(s < 1 or s > nv for s in sizes):
        raise ValueError("sizes must lie in [1, 2n]")
    return sizes


def w_concentration_scan(g: Graph, l: int, samples: int, rng: np.random.Generator) -> float:
    """Max normalized |W - W_hat| over sampled tuples. The first two samples
    are the fully structured tuples (V; V,..) and (V1; V2,..); later slots mix
    pool picks (whole graph, communities, small sets) with uniform subsets."""
    _check_order(l)
    _check_samples(samples)
    _check_graph(g)
    norm = _w_norm(g, l)
    nv = g.num_vertices
    pool = _mask_pool(g, rng)
    worst = 0.0
    for k in range(samples):
        if k == 0:
            s0, sets = pool[0], [pool[0]] * l
        elif k == 1:
            s0, sets = pool[1], [pool[2]] * l
        else:
            def draw():
                if rng.random() < 0.5:
                    return pool[rng.integers(len(pool))]
                return rng.random(nv) < 0.5

            s0, sets = draw(), [draw() for _ in range(l)]
        dev = abs(w_stat(g, s0, sets) - w_hat(g.n, g.p, g.q, s0, sets)) / norm
        worst = max(worst, dev)
    return float(worst)


def _ideal_ratios(g: Graph, a_mask: np.ndarray):
    """Per-community counts (c1, c2) of a_mask and the ideal neighbor ratios
    z_i = (c_i p + c_{3-i} q) / (n(p+q))."""
    c1 = int(np.count_nonzero(a_mask[: g.n]))
    c2 = int(np.count_nonzero(a_mask[g.n :]))
    denom = g.n * (g.p + g.q)
    z1 = (c1 * g.p + c2 * g.q) / denom
    z2 = (c2 * g.p + c1 * g.q) / denom
    return (c1, c2), (z1, z2)


def _ratio_profile(g: Graph, a_mask: np.ndarray):
    x = g.count_in(a_mask) / np.maximum(g.degrees, 1)
    return x, _ideal_ratios(g, a_mask)[1]


def _community_sums(g: Graph, s_mask: np.ndarray, values: np.ndarray):
    n = g.n
    in1 = s_mask[:n]
    in2 = s_mask[n:]
    return (
        (float(values[:n][in1].sum()), int(np.count_nonzero(in1))),
        (float(values[n:][in2].sum()), int(np.count_nonzero(in2))),
    )


def p2_scan(g: Graph, rule: VotingRule, samples: int, rng: np.random.Generator) -> float:
    """Max over sampled (A, S, community, f in {f1,f2}) of
    |sum_{v in S∩V_i} f(x_v) - |S∩V_i| f(z_i)| / sqrt(n/p)."""
    _check_samples(samples)
    _check_graph(g)
    nv = g.num_vertices
    norm = _sqrt_norm(g)
    pool = _mask_pool(g, rng)
    worst = 0.0
    for _ in range(samples):
        a_mask = rng.random(nv) < rng.uniform(0.05, 0.95)
        x, (z1, z2) = _ratio_profile(g, a_mask)
        s_choices = [pool[0], pool[1], pool[2], a_mask, ~a_mask, rng.random(nv) < 0.5]
        s_mask = s_choices[rng.integers(len(s_choices))]
        for f in (rule.f1, rule.f2):
            fx = f(x)
            (sum1, cnt1), (sum2, cnt2) = _community_sums(g, s_mask, fx)
            worst = max(
                worst,
                abs(sum1 - cnt1 * f(z1)) / norm,
                abs(sum2 - cnt2 * f(z2)) / norm,
            )
    return float(worst)


def p3_scan(
    g: Graph,
    rule: VotingRule,
    samples: int,
    rng: np.random.Generator,
    sizes=None,
) -> float:
    """One-sided small-set probe: max over samples of
    (sum_{v in S∩V_i} f(x_v) - |S∩V_i| f(z_i)) / (|A| sqrt(ln n/(np))),
    with |A| cycling {sqrt(n), n/ln n, 0.01*2n} (or the given sizes) and
    S in {A, V\\A, V}."""
    _check_samples(samples)
    _check_graph(g)
    sizes = _p3_sizes(g, sizes)
    norms = _p3_norms(g, sizes)
    nv = g.num_vertices
    full = np.ones(nv, dtype=bool)
    worst = 0.0
    for k in range(samples):
        size, norm = sizes[k % len(sizes)], norms[k % len(sizes)]
        a_mask = np.zeros(nv, dtype=bool)
        a_mask[rng.permutation(nv)[:size]] = True
        x, (z1, z2) = _ratio_profile(g, a_mask)
        for s_mask in (a_mask, ~a_mask, full):
            for f in (rule.f1, rule.f2):
                fx = f(x)
                (sum1, cnt1), (sum2, cnt2) = _community_sums(g, s_mask, fx)
                worst = max(
                    worst,
                    (sum1 - cnt1 * f(z1)) / norm,
                    (sum2 - cnt2 * f(z2)) / norm,
                )
    return float(max(worst, 0.0))


def variance_profile(g: Graph, rule: VotingRule, states) -> float:
    """Max over states and communities of the normalized gap between the exact
    one-step variance of |A'_i| and its ideal |A_i| g1(z_i) + (n-|A_i|) g2(z_i),
    where g_k(x) = f_k(x)(1 - f_k(x)); normalization sqrt(n/p)."""
    _check_graph(g)
    n = g.n
    norm = _sqrt_norm(g)
    worst = 0.0
    for s in states:
        prob = step_probabilities(g, s, rule)
        var_terms = prob * (1.0 - prob)
        (c1, c2), (z1, z2) = _ideal_ratios(g, s.member)
        for lo, hi, cnt, z in ((0, n, c1, z1), (n, 2 * n, c2, z2)):
            exact = float(var_terms[lo:hi].sum())
            g1 = rule.f1(z) * (1.0 - rule.f1(z))
            g2 = rule.f2(z) * (1.0 - rule.f2(z))
            ideal = cnt * g1 + (n - cnt) * g2
            worst = max(worst, abs(exact - ideal) / norm)
    return float(worst)


def goodness_report(
    g: Graph,
    rule: VotingRule,
    samples: int,
    rng: np.random.Generator,
    w_orders=(1, 2, 3),
    p3_sizes=None,
) -> dict:
    """Run every probe on one graph and collect the empirical constants;
    the variance probe uses 20 random states. The graph, every argument and
    every probe's normaliser are checked before anything is drawn."""
    _check_graph(g)
    _check_samples(samples)
    for l in w_orders:
        _check_order(l)
        _w_norm(g, l)
    _sqrt_norm(g)
    p3_sizes = _p3_sizes(g, p3_sizes)
    _p3_norms(g, p3_sizes)
    states = [
        state_from_member(rng.random(g.num_vertices) < rng.uniform(0.05, 0.95))
        for _ in range(20)
    ]
    return {
        "rule": rule.name,
        "n": g.n,
        "p": g.p,
        "q": g.q,
        "samples": samples,
        "p2_max": p2_scan(g, rule, samples, rng),
        "p3_max": p3_scan(g, rule, samples, rng, sizes=p3_sizes),
        "variance_max_dev": variance_profile(g, rule, states),
        "w_max_normalized_dev": {
            str(l): w_concentration_scan(g, l, samples, rng)
            for l in w_orders
        },
    }
