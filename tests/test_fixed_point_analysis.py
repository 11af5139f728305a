"""Fixed points, Jacobians, spectra, classification, tables, and thresholds."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import votedyn as vd
from votedyn import (
    CLASS_CONSENSUS,
    CLASS_MARGINAL,
    CLASS_SADDLE,
    CLASS_SINK,
    CLASS_SOURCE,
    analyze,
    classify,
    competitive_checks,
    eigen_2x2,
    eigen_table,
    eval_T_bo2,
    eval_T_bo3,
    fixed_point_locations,
    induced_map,
    jacobian_analytic,
    jacobian_numeric,
    make_rule_bo2,
    make_rule_bo3,
    r_of_u,
    singular_values_2x2,
    threshold_r,
)
from votedyn.fixed_point_analysis import Matrix2

from . import oracles

PHI_HAT = (math.sqrt(5.0) - 1.0) / 2.0
BOUNDARIES = (0.5, 2.0 / 3.0, 0.75, PHI_HAT)


def _oracle_locations(model: str, u: float) -> dict:
    if model == "bo3":
        return oracles.fixed_points_bo3_exact(u)
    return oracles.fixed_points_bo2_exact(u)


# --- locations and existence windows ---


@given(st.floats(0.01, 0.99), st.sampled_from(["bo3", "bo2"]))
@settings(max_examples=200, deadline=None)
def test_locations_match_oracle(u, model):
    assume(all(abs(u - b) > 1e-9 for b in BOUNDARIES))
    got = fixed_point_locations(model, u)
    want = _oracle_locations(model, u)
    assert set(got) == set(want)
    for fp_id, loc in want.items():
        assert got[fp_id] == pytest.approx(loc, abs=1e-12)


def test_existence_windows():
    assert set(fixed_point_locations("bo3", 0.6)) == {"d1*", "d4*"}
    assert set(fixed_point_locations("bo3", 0.7)) == {"d1*", "d2*", "d4*"}
    assert set(fixed_point_locations("bo3", 0.8)) == {"d1*", "d2*", "d3*", "d4*"}
    assert set(fixed_point_locations("bo2", 0.45)) == {"d1*", "d4*"}
    assert set(fixed_point_locations("bo2", 0.55)) == {"d1*", "d2*", "d4*"}
    assert set(fixed_point_locations("bo2", 0.7)) == {"d1*", "d2*", "d3*", "d4*"}


def test_frozen_locations_u08():
    bo3 = fixed_point_locations("bo3", 0.8)
    assert bo3["d2*"] == pytest.approx((0.8838834764831848, 0.0), abs=1e-12)
    assert bo3["d3*"] == pytest.approx((0.6987712429686842, 0.25), abs=1e-12)
    bo2 = fixed_point_locations("bo2", 0.8)
    assert bo2["d2*"] == pytest.approx((0.9682458365518543, 0.0), abs=1e-12)
    assert bo2["d3*"] == pytest.approx(
        (0.6211299937499415, 0.36851386559504445), abs=1e-12
    )


def test_residuals_on_u_grid():
    for model, t_map in (("bo3", eval_T_bo3), ("bo2", eval_T_bo2)):
        for u in np.arange(0.05, 1.0, 0.01):
            for fp_id, loc in fixed_point_locations(model, float(u)).items():
                image = t_map(float(u), loc)
                res = max(abs(image[0] - loc[0]), abs(image[1] - loc[1]))
                assert res <= 1e-12, (model, float(u), fp_id, res)


# --- Jacobians ---


def test_jacobian_analytic_vs_numeric():
    rng = np.random.default_rng(11)
    for model, rule in (("bo3", make_rule_bo3()), ("bo2", make_rule_bo2())):
        for _ in range(50):
            u = float(rng.uniform(0.05, 0.95))
            d2 = float(rng.uniform(0.0, 1.0))
            d1 = float(rng.uniform(0.0, 1.0 - d2))
            m = induced_map(rule, r_of_u(u))
            ja = jacobian_analytic(model, m.u, (d1, d2))
            jn = jacobian_numeric(m, (d1, d2))
            for fa, fn in (
                (ja.j11, jn.j11), (ja.j12, jn.j12), (ja.j21, jn.j21), (ja.j22, jn.j22)
            ):
                assert fa == pytest.approx(fn, abs=1e-6)


def test_jacobian_vs_oracle_finite_difference():
    def t_bo3(x, y):
        return eval_T_bo3(0.8, (x, y))

    jn = oracles.fd_jacobian(t_bo3, 0.2, 0.1)
    ja = jacobian_analytic("bo3", 0.8, (0.2, 0.1))
    assert (ja.j11, ja.j12, ja.j21, ja.j22) == pytest.approx(jn, abs=1e-6)


def test_j3_frozen_eigenvalues():
    j3 = jacobian_analytic("bo3", 0.8, fixed_point_locations("bo3", 0.8)["d3*"])
    l1, l2 = eigen_2x2(j3)
    assert l1.real == pytest.approx(1.2302911524016555, abs=1e-10)
    assert l2.real == pytest.approx(0.45720884759834435, abs=1e-10)
    j3b = jacobian_analytic("bo2", 0.8, fixed_point_locations("bo2", 0.8)["d3*"])
    l1, l2 = eigen_2x2(j3b)
    assert l1.real == pytest.approx(1.3638201736246274, abs=1e-10)
    assert l2.real == pytest.approx(0.2534637769926571, abs=1e-10)


# --- 2x2 spectrum helpers ---


def test_singular_values_frozen():
    s1, s2 = singular_values_2x2(Matrix2(3.0, 0.0, 4.0, 5.0))
    assert s1 == pytest.approx(6.708203932499369, abs=1e-12)
    assert s2 == pytest.approx(2.23606797749979, abs=1e-12)


def test_eigen_complex_pair():
    l1, l2 = eigen_2x2(Matrix2(0.0, -1.0, 1.0, 0.0))
    assert l1 == pytest.approx(1j) and l2 == pytest.approx(-1j)


@given(*(st.floats(-5.0, 5.0, allow_nan=False) for _ in range(4)))
@settings(max_examples=200, deadline=None)
def test_spectrum_matches_oracle(a, b, c, d):
    m = Matrix2(a, b, c, d)
    l1, l2 = eigen_2x2(m)
    o1, o2 = oracles.eig2(a, b, c, d)
    # complex pairs have no canonical order; compare as an unordered pair
    assert min(
        max(abs(l1 - o1), abs(l2 - o2)), max(abs(l1 - o2), abs(l2 - o1))
    ) <= 1e-9
    # trace and determinant identities
    det, tr = a * d - b * c, a + d
    assert abs(l1 * l2 - det) <= 1e-9
    assert abs(l1 + l2 - tr) <= 1e-9
    s1, s2 = singular_values_2x2(m)
    p1, p2 = oracles.sv2(a, b, c, d)
    # sigma_2 suffers sqrt cancellation near rank-1 matrices: sqrt(eps)*norm
    sv_tol = math.sqrt(np.finfo(np.float64).eps) * max(1.0, abs(a) + abs(b) + abs(c) + abs(d))
    assert s1 == pytest.approx(p1, abs=sv_tol) and s2 == pytest.approx(p2, abs=sv_tol)
    assert s1 >= s2 >= 0.0
    assert s1 * s2 == pytest.approx(abs(det), abs=1e-7)


# --- classification ---


def test_classify_branches():
    assert classify(Matrix2(0.0, 0.0, 0.0, 0.0)) == CLASS_CONSENSUS
    assert classify(Matrix2(1.0, 0.0, 0.0, 1.0)) == CLASS_MARGINAL
    assert classify(Matrix2(0.5, 0.0, 0.0, 0.25)) == CLASS_SINK
    assert classify(Matrix2(2.0, 0.0, 0.0, 1.5)) == CLASS_SOURCE
    assert classify(Matrix2(2.0, 0.0, 0.0, 0.5)) == CLASS_SADDLE
    # a unit eigenvalue wins over everything else
    assert classify(Matrix2(1.0, 0.0, 4.0, 0.5)) == CLASS_MARGINAL


def test_sink_needs_contraction_in_norm():
    # both |eigenvalues| < 1 but sigma_max > 1: not certified as a sink
    m = Matrix2(0.9, 0.0, 4.0, 0.5)
    assert max(abs(l) for l in eigen_2x2(m)) < 1.0
    assert singular_values_2x2(m)[0] > 1.0
    assert classify(m) != CLASS_SINK


# --- tables ---


def test_eigen_table_bo3():
    rows = eigen_table("bo3", [0.5, 2.0 / 3.0, 0.7, 0.75, 0.9])
    want = {
        0.5: {"d1*": ("+", "-"), "d4*": ("-", "-")},
        2.0 / 3.0: {"d1*": ("+", "1"), "d2*": ("+", "1"), "d4*": ("-", "-")},
        0.7: {"d1*": ("+", "+"), "d2*": ("+", "-"), "d4*": ("-", "-")},
        0.75: {
            "d1*": ("+", "+"), "d2*": ("1", "-"), "d3*": ("1", "-"), "d4*": ("-", "-")
        },
        0.9: {
            "d1*": ("+", "+"), "d2*": ("-", "-"), "d3*": ("+", "-"), "d4*": ("-", "-")
        },
    }
    assert rows == want


def test_eigen_table_bo2():
    rows = eigen_table("bo2", [0.4, 0.5, 0.55, PHI_HAT, 0.8])
    want = {
        0.4: {"d1*": ("+", "-"), "d4*": ("-", "-")},
        0.5: {"d1*": ("+", "1"), "d2*": ("+", "1"), "d4*": ("-", "-")},
        0.55: {"d1*": ("+", "+"), "d2*": ("+", "-"), "d4*": ("-", "-")},
        PHI_HAT: {
            "d1*": ("+", "+"), "d2*": ("1", "-"), "d3*": ("1", "-"), "d4*": ("-", "-")
        },
        0.8: {
            "d1*": ("+", "+"), "d2*": ("-", "-"), "d3*": ("+", "-"), "d4*": ("-", "-")
        },
    }
    assert rows == want


# --- thresholds ---


def test_threshold_r():
    bo3 = threshold_r("bo3")
    assert abs(bo3.r_star - 1.0 / 7.0) <= 1e-9
    assert abs(bo3.analytic_r - 1.0 / 7.0) <= 1e-15
    assert abs(bo3.u_star - 0.75) <= 1e-9
    bo2 = threshold_r("bo2")
    assert abs(bo2.r_star - (math.sqrt(5.0) - 2.0)) <= 1e-9
    assert abs(bo2.u_star - PHI_HAT) <= 1e-9
    for res in (bo3, bo2):
        assert res.bracket[0] < res.u_star < res.bracket[1]
        assert res.iterations > 0
    with pytest.raises(ValueError):
        threshold_r("bo7")


# --- reports ---


def test_analyze_classes_above_threshold():
    by_id = {r.id: r for r in analyze("bo3", 0.8)}
    assert by_id["d1*"].classification == CLASS_SOURCE
    assert by_id["d2*"].classification == CLASS_SINK
    assert by_id["d3*"].classification == CLASS_SADDLE
    assert by_id["d4*"].classification == CLASS_CONSENSUS
    for r in by_id.values():
        assert r.exists and r.residual <= 1e-12


def test_analyze_below_threshold():
    by_id = {r.id: r for r in analyze("bo3", 0.5)}
    assert set(by_id) == {"d1*", "d2*", "d3*", "d4*"}
    assert {i for i, r in by_id.items() if r.exists} == {"d1*", "d4*"}
    assert by_id["d1*"].classification == CLASS_SADDLE
    assert by_id["d4*"].classification == CLASS_CONSENSUS
    assert by_id["d2*"].location is None and by_id["d2*"].classification is None


def test_report_json_roundtrip():
    rep = {r.id: r for r in analyze("bo2", 0.8)}["d2*"]
    d = rep.to_json_dict()
    assert d["class"] == CLASS_SINK
    assert d["id"] == "d2*"
    parsed = json.loads(json.dumps(d))
    assert parsed["location"] == pytest.approx([0.9682458365518543, 0.0])


def test_report_json_one_schema():
    # bo3 at u=0.5 has no d2* or d3*; their entries still carry every key
    docs = [rep.to_json_dict() for rep in analyze("bo3", 0.5)]
    assert [d["exists"] for d in docs] == [True, False, False, True]
    assert all(d.keys() == docs[0].keys() for d in docs)
    assert docs[1]["residual"] is None and docs[0]["residual"] is not None


# --- competitive structure ---


def test_competitive_checks_pass():
    for model in ("bo3", "bo2"):
        for u in (0.3, 0.8):
            rep = competitive_checks(model, u, 0.05)
            assert rep["passed"] is True
            assert rep["sign_violations"] == 0
            assert rep["min_det"] > 0.0
            assert rep["points"] > 0


def test_competitive_checks_validation():
    with pytest.raises(ValueError):
        competitive_checks("bo3", 1.2, 0.05)
    with pytest.raises(ValueError):
        competitive_checks("bo3", 0.0, 0.05)
