"""Fixed points of the delta-space maps and their linear stability.

Closed-form fixed-point locations, general-form Jacobians, eigen/singular
analysis, classification against the sink criterion (largest singular value
below one), threshold detection for the saddle-to-sink transition of the
interior axis point, and the competitive-map sign/determinant checks.

Ground truth for Jacobians is always the general-form matrix evaluated at the
closed-form location. The test suite cross-checks it by central finite
differences of the induced map (tests/oracles.py) and keeps per-point
specialized formulas as secondary oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import Callable

import numpy as np

from . import induced_dynamics as idyn
from . import voting_core as vc

__all__ = [
    "Matrix2",
    "FixedPointReport",
    "ThresholdResult",
    "MODELS",
    "FP_IDS",
    "CLASS_CONSENSUS",
    "CLASS_SINK",
    "CLASS_SADDLE",
    "CLASS_SOURCE",
    "CLASS_MARGINAL",
    "fixed_point_locations",
    "jacobian_analytic",
    "eigen_2x2",
    "singular_values_2x2",
    "classify",
    "analyze",
    "eigen_table",
    "threshold_r",
    "competitive_checks",
]

FP_IDS = ("d1*", "d2*", "d3*", "d4*")

CLASS_CONSENSUS = "consensus_superattracting"
CLASS_SINK = "sink"
CLASS_SADDLE = "saddle"
CLASS_SOURCE = "source"
CLASS_MARGINAL = "marginal"

MARGINAL_TOL = 1e-9
EXIST_TOL = 1e-12  # slack on the domain conditions so boundary u values count


@dataclass(frozen=True)
class Matrix2:
    j11: float
    j12: float
    j21: float
    j22: float

    @property
    def trace(self) -> float:
        return self.j11 + self.j22

    @property
    def det(self) -> float:
        return self.j11 * self.j22 - self.j12 * self.j21


def _sqrt_clamped(x: float) -> float:
    return math.sqrt(max(x, 0.0))


def _fixed_points_bo3(u: float) -> dict[str, tuple[float, float]]:
    """Existing fixed points of the bo3 delta map, id -> (d1, d2).

    The consensus points (0,0) and (0,1) always exist; the axis point needs
    u >= 2/3 and the interior point u >= 3/4.
    """
    if not 0.0 <= u <= 1.0:
        raise ValueError("u must lie in [0,1]")
    pts = {"d1*": (0.0, 0.0)}
    if 3.0 * u - 2.0 >= -EXIST_TOL:
        pts["d2*"] = (_sqrt_clamped((3.0 * u - 2.0) / u**3), 0.0)
    if 4.0 * u - 3.0 >= -EXIST_TOL:
        pts["d3*"] = (
            _sqrt_clamped(1.0 / (4.0 * u**3)),
            _sqrt_clamped((4.0 * u - 3.0) / (4.0 * u)),
        )
    pts["d4*"] = (0.0, 1.0)
    return pts


def _fixed_points_bo2(u: float) -> dict[str, tuple[float, float]]:
    """Existing fixed points of the bo2 delta map, id -> (d1, d2).

    The axis point needs u >= 1/2 and the interior point u >= (sqrt(5)-1)/2.
    The interior point solves u^2 d1^2 + (2u+1) d2^2 = 2u-1 together with
    u(u+2) d1^2 + d2^2 = 1, giving d1^2 = 1/(u(u+1)^2) and
    d2^2 = (u^2+u-1)/(u+1)^2; the fixed-point residual pins this orientation.
    """
    if not 0.0 <= u <= 1.0:
        raise ValueError("u must lie in [0,1]")
    pts = {"d1*": (0.0, 0.0)}
    if 2.0 * u - 1.0 >= -EXIST_TOL:
        pts["d2*"] = (_sqrt_clamped((2.0 * u - 1.0) / u**2), 0.0)
    if u * u + u - 1.0 >= -EXIST_TOL:
        pts["d3*"] = (
            _sqrt_clamped(1.0 / (u * (u + 1.0) ** 2)),
            _sqrt_clamped(u * u + u - 1.0) / (u + 1.0),
        )
    pts["d4*"] = (0.0, 1.0)
    return pts


def _jac_bo3(u: float, d1, d2):
    core = 1.0 - (u * d1) ** 2 - d2**2
    return 1.5 * u * core, -3.0 * u * d1 * d2, -3.0 * u * u * d1 * d2, 1.5 * core


def _jac_bo2(u: float, d1, d2):
    j11 = 0.5 * (2.0 * u + 1.0 - 3.0 * (u * d1) ** 2 - (2.0 * u + 1.0) * d2**2)
    j12 = -(2.0 * u + 1.0) * d1 * d2
    j21 = -u * (u + 2.0) * d1 * d2
    j22 = 0.5 * (3.0 - u * (2.0 + u) * d1**2 - 3.0 * d2**2)
    return j11, j12, j21, j22


@dataclass(frozen=True)
class _ClosedForm:
    """One model's closed forms, the one place each fact lives: locations(u)
    -> {id: (d1, d2)}, the general-form Jacobian jac_entries(u, d1, d2), the
    threshold u* and r* = r_of_u(u*), and a u bracket around u* to bisect."""

    locations: Callable
    jac_entries: Callable
    u_star: float
    r_star: float
    bracket: tuple[float, float]


_CLOSED_FORMS = {
    "bo3": _ClosedForm(_fixed_points_bo3, _jac_bo3, 0.75, 1.0 / 7.0, (2.0 / 3.0, 1.0)),
    "bo2": _ClosedForm(
        _fixed_points_bo2, _jac_bo2, (math.sqrt(5.0) - 1.0) / 2.0, math.sqrt(5.0) - 2.0, (0.5, 1.0)
    ),
}
MODELS = tuple(_CLOSED_FORMS)


def _closed_form(model: str) -> _ClosedForm:
    form = _CLOSED_FORMS.get(model)
    if form is None:
        raise ValueError(f"no closed form for model {model!r}: the closed forms exist for bo3 and bo2 only")
    return form


def fixed_point_locations(model: str, u: float) -> dict[str, tuple[float, float]]:
    return _closed_form(model).locations(u)


def _jac_entries(model: str, u: float, d1, d2):
    """General-form Jacobian entries; d1/d2 may be arrays."""
    jac = _closed_form(model).jac_entries
    return jac(u, np.asarray(d1, dtype=np.float64), np.asarray(d2, dtype=np.float64))


def jacobian_analytic(model: str, u: float, d) -> Matrix2:
    j11, j12, j21, j22 = _jac_entries(model, u, d[0], d[1])
    return Matrix2(float(j11), float(j12), float(j21), float(j22))


def eigen_2x2(m: Matrix2) -> tuple[complex, complex]:
    """Roots of the characteristic polynomial, ordered by modulus descending
    (ties broken by real part descending)."""
    tr, det = m.trace, m.det
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        s = math.sqrt(disc)
        if tr >= 0.0:
            big = (tr + s) / 2.0
        else:
            big = (tr - s) / 2.0
        small = det / big if big != 0.0 else tr - big
        l1, l2 = complex(big), complex(small)
    else:
        s = math.sqrt(-disc) / 2.0
        l1, l2 = complex(tr / 2.0, s), complex(tr / 2.0, -s)
    pair = sorted((l1, l2), key=lambda z: (abs(z), z.real), reverse=True)
    return pair[0], pair[1]


def singular_values_2x2(m: Matrix2) -> tuple[float, float]:
    a, b, c, d = m.j11, m.j12, m.j21, m.j22
    big = math.hypot(a + d, b - c)
    small = math.hypot(a - d, b + c)
    return (big + small) / 2.0, abs(big - small) / 2.0


def classify(m: Matrix2) -> str:
    """Stability class.

    Zero matrix -> consensus_superattracting; any eigenvalue within 1e-9 of
    the unit circle -> marginal; largest singular value < 1 -> sink; both
    moduli > 1 -> source; straddling -> saddle. Anything left (spectrally
    stable but not norm-contracting) is reported marginal as the nearest
    honest label.
    """
    if max(abs(m.j11), abs(m.j12), abs(m.j21), abs(m.j22)) <= MARGINAL_TOL:
        return CLASS_CONSENSUS
    l1, l2 = eigen_2x2(m)
    m1, m2 = abs(l1), abs(l2)
    if abs(m1 - 1.0) <= MARGINAL_TOL or abs(m2 - 1.0) <= MARGINAL_TOL:
        return CLASS_MARGINAL
    if singular_values_2x2(m)[0] < 1.0:
        return CLASS_SINK
    if m1 > 1.0 and m2 > 1.0:
        return CLASS_SOURCE
    if m1 > 1.0 > m2:
        return CLASS_SADDLE
    return CLASS_MARGINAL


@dataclass
class FixedPointReport:
    id: str
    exists: bool
    location: tuple[float, float] | None = None
    jacobian: Matrix2 | None = None
    eigenvalues: tuple[complex, complex] | None = None
    singular_values: tuple[float, float] | None = None
    classification: str | None = None
    residual: float | None = None

    def to_json_dict(self) -> dict:
        if not self.exists:
            fields = ("location", "jacobian", "eigenvalues", "singular_values", "class", "residual")
            return {"id": self.id, "exists": False, **dict.fromkeys(fields)}
        l1, l2 = self.eigenvalues
        return {
            "id": self.id,
            "exists": True,
            "location": [self.location[0], self.location[1]],
            "jacobian": [
                [self.jacobian.j11, self.jacobian.j12],
                [self.jacobian.j21, self.jacobian.j22],
            ],
            "eigenvalues": [
                {"re": l1.real, "im": l1.imag},
                {"re": l2.real, "im": l2.imag},
            ],
            "singular_values": [self.singular_values[0], self.singular_values[1]],
            "class": self.classification,
            "residual": self.residual,
        }


def analyze(model: str, u: float) -> list[FixedPointReport]:
    """Full per-fixed-point report at a given u: location, general-form
    Jacobian, eigenvalues, singular values, class, and map residual."""
    locs = fixed_point_locations(model, u)
    m = idyn.InducedMap(vc.VotingRule(model), idyn.r_of_u(u))
    reports = []
    for fp_id in FP_IDS:
        if fp_id not in locs:
            reports.append(FixedPointReport(id=fp_id, exists=False))
            continue
        loc = locs[fp_id]
        jac = jacobian_analytic(model, u, loc)
        image = m.delta(loc)
        reports.append(
            FixedPointReport(
                id=fp_id,
                exists=True,
                location=loc,
                jacobian=jac,
                eigenvalues=eigen_2x2(jac),
                singular_values=singular_values_2x2(jac),
                classification=classify(jac),
                residual=max(abs(image[0] - loc[0]), abs(image[1] - loc[1])),
            )
        )
    return reports


def _sign_vs_one(modulus: float) -> str:
    if abs(modulus - 1.0) <= MARGINAL_TOL:
        return "1"
    return "+" if modulus > 1.0 else "-"


def eigen_table(model: str, u_values) -> dict[float, dict[str, tuple[str, str]]]:
    """For each u, the (c1, c2) pattern per existing fixed point, where c
    says whether the eigenvalue modulus is above (+), at (1), or below (-) 1,
    eigenvalues ordered by modulus descending."""
    table = {}
    for u in u_values:
        row = {}
        for fp_id, loc in fixed_point_locations(model, float(u)).items():
            l1, l2 = eigen_2x2(jacobian_analytic(model, float(u), loc))
            row[fp_id] = (_sign_vs_one(abs(l1)), _sign_vs_one(abs(l2)))
        table[float(u)] = row
    return table


@dataclass
class ThresholdResult:
    """Bisection certificate for the axis fixed point's stability threshold."""

    model: str
    r_star: float
    u_star: float
    analytic_r: float
    analytic_u: float
    iterations: int
    bracket: tuple[float, float]

    @property
    def agrees(self) -> bool:
        return (
            abs(self.r_star - self.analytic_r) <= 1e-9
            and abs(self.u_star - self.analytic_u) <= 1e-9
        )


def threshold_r(model: str) -> ThresholdResult:
    """Locate the u where the leading eigenvalue at the axis point crosses 1,
    by bisection on the general-form Jacobian, and return r* = r_of_u(u*).

    Raises if the numeric crossing disagrees with the closed-form value
    beyond 1e-9.
    """
    form = _closed_form(model)

    def excess(u: float) -> float:
        loc = fixed_point_locations(model, u)["d2*"]
        l1, _ = eigen_2x2(jacobian_analytic(model, u, loc))
        return abs(l1) - 1.0

    lo, hi = bracket = form.bracket
    if not (excess(lo) > 0.0 > excess(hi)):
        raise RuntimeError("threshold bracket does not straddle the crossing")
    iterations = 0
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    u_star = 0.5 * (lo + hi)
    result = ThresholdResult(
        model=model,
        r_star=idyn.r_of_u(u_star),
        u_star=u_star,
        analytic_r=form.r_star,
        analytic_u=form.u_star,
        iterations=iterations,
        bracket=bracket,
    )
    if not result.agrees:
        raise RuntimeError(
            f"numeric threshold {result.r_star!r} disagrees with "
            f"closed form {result.analytic_r!r}"
        )
    return result


def competitive_checks(model: str, u: float, grid_step: float) -> dict:
    """Scan a grid of S minus the (0,1) corner for the competitive-map
    criteria: diagonal Jacobian entries nonnegative, off-diagonal entries
    nonpositive (1e-12 slack), and strictly positive determinant."""
    if not 0.0 < u < 1.0:
        raise ValueError("u must lie strictly between 0 and 1")
    if grid_step <= 0.0:
        raise ValueError("grid_step must be > 0")
    axis = np.arange(0.0, 1.0 + grid_step / 2.0, grid_step)
    g1, g2 = np.meshgrid(axis, axis)
    keep = (g1 + g2 <= 1.0 + 1e-12) & ~((np.abs(g1) < 1e-12) & (np.abs(g2 - 1.0) < 1e-12))
    d1, d2 = g1[keep], g2[keep]
    j11, j12, j21, j22 = _jac_entries(model, u, d1, d2)
    tol = 1e-12
    sign_violations = int(
        np.count_nonzero((j11 < -tol) | (j22 < -tol) | (j12 > tol) | (j21 > tol))
    )
    det = j11 * j22 - j12 * j21
    min_det = float(det.min())
    return {
        "model": model,
        "u": u,
        "grid_step": grid_step,
        "points": int(d1.size),
        "sign_violations": sign_violations,
        "min_det": min_det,
        "passed": sign_violations == 0 and min_det > 0.0,
    }
