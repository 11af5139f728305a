"""Mean-field maps induced by a voting rule on the two-community model.

In alpha coordinates (per-community opinion-1 fractions a1, a2) one step of
the expected dynamics is

    H_i(a1, a2) = a_i f1(z_i) + (1 - a_i) f2(z_i),
    z_i = (a_i + r a_{3-i}) / (1 + r),

where r = q/p. The analysis coordinates are (d1, d2) = (a1 - a2, a1 + a2 - 1)
with u = (1 - r)/(1 + r); the conjugated map T has cubic closed forms for the
bo3 and bo2 rules. InducedMap.alpha steps H, and InducedMap.delta steps T
always by conjugating H; the tests' stdlib oracles hold the closed forms
that cross-check it.

The triangle S = {d1, d2 >= 0, d1 + d2 <= 1} is forward-invariant for both
built-in rules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .voting_core import VotingRule, to_alpha, to_delta

__all__ = [
    "InducedMap",
    "u_of_r",
    "r_of_u",
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
    """Deterministic one-step expectation map for a rule at cross ratio r in
    [0,1]: alpha steps it in alpha coordinates, delta in delta coordinates.
    Both accept scalars or matching arrays."""

    rule: VotingRule
    r: float

    def __post_init__(self):
        u_of_r(self.r)

    @property
    def u(self) -> float:
        return u_of_r(self.r)

    def alpha(self, a):
        """One step in alpha coordinates."""
        a1 = np.asarray(a[0], dtype=np.float64)
        a2 = np.asarray(a[1], dtype=np.float64)
        z1 = (a1 + self.r * a2) / (1.0 + self.r)
        z2 = (a2 + self.r * a1) / (1.0 + self.r)
        h1 = a1 * self.rule.f1(z1) + (1.0 - a1) * self.rule.f2(z1)
        h2 = a2 * self.rule.f1(z2) + (1.0 - a2) * self.rule.f2(z2)
        if h1.ndim == 0:
            return float(h1), float(h2)
        return h1, h2

    def delta(self, d):
        """One step in delta coordinates, by conjugating the alpha step."""
        a = to_alpha(np.asarray(d[0], dtype=np.float64), np.asarray(d[1], dtype=np.float64))
        return to_delta(*self.alpha(a))


def iterate(step, x0, t: int) -> np.ndarray:
    """Orbit of x0 under a step function such as InducedMap.alpha, as a
    (t+1, 2) array: row k is the k-th image."""
    if t < 0:
        raise ValueError("t must be >= 0")
    pts = np.empty((t + 1, 2), dtype=np.float64)
    pts[0] = (x0[0], x0[1])
    for k in range(t):
        pts[k + 1] = step(pts[k])
    return pts
