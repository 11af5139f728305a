"""Mean-field maps induced by a voting rule on the two-community model.

In alpha coordinates (per-community opinion-1 fractions a1, a2) one step of
the expected dynamics is

    H_i(a1, a2) = a_i f1(z_i) + (1 - a_i) f2(z_i),
    z_i = (a_i + r a_{3-i}) / (1 + r),

where r = q/p. The analysis coordinates are (d1, d2) = (a1 - a2, a1 + a2 - 1)
with u = (1 - r)/(1 + r); the conjugated map T has cubic closed forms for the
bo3 and bo2 rules. eval_T_generic always goes through the alpha-space route so
the closed forms stay an independent cross-check.

The triangle S = {d1, d2 >= 0, d1 + d2 <= 1} is forward-invariant for both
built-in rules; check_S_closed probes that numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .voting_core import VotingRule, to_alpha, to_delta

__all__ = [
    "InducedMap",
    "Orbit",
    "induced_map",
    "u_of_r",
    "r_of_u",
    "eval_H",
    "eval_T_bo3",
    "eval_T_bo2",
    "eval_T_generic",
    "iterate",
    "orbit_limit",
    "check_S_closed",
    "write_orbit_csv",
]

NO_CONVERGENCE = "no_convergence"
UNMATCHED = "unmatched"


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

    space selects the coordinates eval works in ("alpha" or "delta"); model
    is "bo3"/"bo2" when delta-space closed forms exist, else "generic".
    """

    rule: VotingRule
    r: float
    u: float
    space: str
    model: str

    def eval(self, x):
        x1, x2 = x[0], x[1]
        if self.space == "alpha":
            return eval_H(self, (x1, x2))
        return eval_T_generic(self, (x1, x2))


def induced_map(rule: VotingRule, r: float, space: str = "delta") -> InducedMap:
    if space not in ("alpha", "delta"):
        raise ValueError("space must be 'alpha' or 'delta'")
    u = u_of_r(r)
    model = rule.name if rule.name in ("bo3", "bo2") else "generic"
    return InducedMap(rule=rule, r=r, u=u, space=space, model=model)


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


def eval_T_bo3(u: float, d):
    """Closed-form delta-space step for the bo3 rule."""
    d1 = np.asarray(d[0], dtype=np.float64)
    d2 = np.asarray(d[1], dtype=np.float64)
    ud1 = u * d1
    t1 = (ud1 / 2.0) * (3.0 - ud1 * ud1 - 3.0 * d2 * d2)
    t2 = (d2 / 2.0) * (3.0 - 3.0 * ud1 * ud1 - d2 * d2)
    if t1.ndim == 0:
        return float(t1), float(t2)
    return t1, t2


def eval_T_bo2(u: float, d):
    """Closed-form delta-space step for the bo2 rule; equals eval_T_bo3 at u=1."""
    d1 = np.asarray(d[0], dtype=np.float64)
    d2 = np.asarray(d[1], dtype=np.float64)
    ud1 = u * d1
    t1 = (d1 / 2.0) * ((2.0 * u + 1.0) - ud1 * ud1 - (2.0 * u + 1.0) * d2 * d2)
    t2 = (d2 / 2.0) * (3.0 - u * (2.0 + u) * d1 * d1 - d2 * d2)
    if t1.ndim == 0:
        return float(t1), float(t2)
    return t1, t2


def eval_T_generic(m: InducedMap, d):
    """Delta-space step through the alpha-space route, for any rule."""
    a = to_alpha(np.asarray(d[0], dtype=np.float64), np.asarray(d[1], dtype=np.float64))
    return to_delta(*eval_H(m, a))


@dataclass
class Orbit:
    """Iterates of an induced map: points[k] is the k-th image of points[0]."""

    points: np.ndarray
    converged_to: str | None
    iterations: int


def iterate(m: InducedMap, x0, t: int) -> Orbit:
    if t < 0:
        raise ValueError("t must be >= 0")
    pts = np.empty((t + 1, 2), dtype=np.float64)
    pts[0] = (x0[0], x0[1])
    for k in range(t):
        pts[k + 1] = m.eval(pts[k])
    return Orbit(points=pts, converged_to=None, iterations=t)


def orbit_limit(
    m: InducedMap,
    x0,
    tol: float = 1e-10,
    max_iter: int = 100000,
):
    """Iterate until successive points differ by < tol in the sup norm.

    Returns (result, final_point, iterations). For bo3/bo2 maps in delta
    space the componentwise absolute value of the final point is matched
    against the closed-form fixed points within 100*tol and result is that
    fixed point's id; a converged orbit with no match (or a generic rule)
    reports "unmatched", and hitting max_iter reports "no_convergence".
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    x = np.array((x0[0], x0[1]), dtype=np.float64)
    for k in range(1, int(max_iter) + 1):
        nxt = np.array(m.eval(x), dtype=np.float64)
        if np.max(np.abs(nxt - x)) < tol:
            return _match_fixed_point(m, nxt, 100.0 * tol), nxt, k
        x = nxt
    return NO_CONVERGENCE, x, int(max_iter)


def _match_fixed_point(m: InducedMap, point: np.ndarray, radius: float) -> str:
    if m.space != "delta" or m.model not in ("bo3", "bo2"):
        return UNMATCHED
    from . import fixed_point_analysis as fpa

    table = fpa.fixed_point_locations(m.model, m.u)
    mag = np.abs(point)
    for fp_id, loc in table.items():
        if max(abs(mag[0] - loc[0]), abs(mag[1] - loc[1])) <= radius:
            return fp_id
    return UNMATCHED


def check_S_closed(m: InducedMap, samples: int, rng: np.random.Generator) -> dict:
    """Sample S uniformly (corners always included), map once in delta space,
    and report the largest excursion outside S. Slack for a pass is 1e-12."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    a = rng.random(samples)
    b = rng.random(samples)
    flip = a + b > 1.0
    a[flip], b[flip] = 1.0 - a[flip], 1.0 - b[flip]
    d1 = np.concatenate(([0.0, 1.0, 0.0], a))
    d2 = np.concatenate(([0.0, 0.0, 1.0], b))
    t1, t2 = eval_T_generic(m, (d1, d2))
    violation = np.maximum.reduce([-t1, -t2, t1 + t2 - 1.0])
    worst = float(np.max(violation))
    worst = max(worst, 0.0)
    idx = int(np.argmax(violation))
    return {
        "samples": int(d1.size),
        "max_violation": worst,
        "worst_point": (float(d1[idx]), float(d2[idx])),
        "passed": worst <= 1e-12,
    }


def write_orbit_csv(orbit: Orbit, m: InducedMap, fh) -> None:
    fh.write(f"# space={m.space} model={m.model} u={m.u:.9g}\n")
    fh.write("t,x1,x2\n")
    for t, (x1, x2) in enumerate(orbit.points):
        fh.write(f"{t},{x1:.9g},{x2:.9g}\n")
