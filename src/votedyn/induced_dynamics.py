"""Mean-field maps induced by a voting rule on the two-community model.

In alpha coordinates (per-community opinion-1 fractions a1, a2) one step of
the expected dynamics is

    H_i(a1, a2) = a_i f1(z_i) + (1 - a_i) f2(z_i),
    z_i = (a_i + r a_{3-i}) / (1 + r),

where r = q/p. The analysis coordinates are (d1, d2) = (a1 - a2, a1 + a2 - 1)
with u = (1 - r)/(1 + r); the conjugated map T has cubic closed forms for the
bo3 and bo2 rules. eval_T_generic always goes through the alpha-space route;
the tests' stdlib oracles hold the closed forms that cross-check it.

The triangle S = {d1, d2 >= 0, d1 + d2 <= 1} is forward-invariant for both
built-in rules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .voting_core import VotingRule, to_alpha, to_delta

__all__ = [
    "InducedMap",
    "induced_map",
    "u_of_r",
    "r_of_u",
    "eval_H",
    "eval_T_generic",
    "iterate",
]


def u_of_r(r: float) -> float:
    if not 0.0 <= r <= 1.0:
        raise ValueError("r must lie in [0,1]")
    return (1.0 - r) / (1.0 + r)


def r_of_u(u: float) -> float:
    if not 0.0 <= u <= 1.0:
        raise ValueError("u must lie in [0,1]")
    return (1.0 - u) / (1.0 + u)


@dataclass(frozen=True)
class InducedMap:
    """Deterministic one-step expectation map for a rule at cross ratio r.

    space selects the coordinates eval works in ("alpha" or "delta").
    """

    rule: VotingRule
    r: float
    u: float
    space: str

    def eval(self, x):
        return eval_H(self, x) if self.space == "alpha" else eval_T_generic(self, x)


def induced_map(rule: VotingRule, r: float, space: str = "delta") -> InducedMap:
    if space not in ("alpha", "delta"):
        raise ValueError("space must be 'alpha' or 'delta'")
    return InducedMap(rule=rule, r=r, u=u_of_r(r), space=space)


def eval_H(m: InducedMap, a):
    """One step in alpha coordinates; accepts scalars or matching arrays."""
    a1 = np.asarray(a[0], dtype=np.float64)
    a2 = np.asarray(a[1], dtype=np.float64)
    z1 = (a1 + m.r * a2) / (1.0 + m.r)
    z2 = (a2 + m.r * a1) / (1.0 + m.r)
    h1 = a1 * m.rule.f1(z1) + (1.0 - a1) * m.rule.f2(z1)
    h2 = a2 * m.rule.f1(z2) + (1.0 - a2) * m.rule.f2(z2)
    if h1.ndim == 0:
        return float(h1), float(h2)
    return h1, h2


def eval_T_generic(m: InducedMap, d):
    """Delta-space step through the alpha-space route, for any rule."""
    a = to_alpha(np.asarray(d[0], dtype=np.float64), np.asarray(d[1], dtype=np.float64))
    return to_delta(*eval_H(m, a))


def iterate(m: InducedMap, x0, t: int) -> np.ndarray:
    """Orbit of x0 under m as a (t+1, 2) array: row k is the k-th image."""
    if t < 0:
        raise ValueError("t must be >= 0")
    pts = np.empty((t + 1, 2), dtype=np.float64)
    pts[0] = (x0[0], x0[1])
    for k in range(t):
        pts[k + 1] = m.eval(pts[k])
    return pts
