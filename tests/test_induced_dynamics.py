"""Induced mean-field maps: H in density coordinates, T in gap coordinates."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import votedyn as vd
from votedyn import (
    InducedMap,
    fixed_point_locations,
    iterate,
    make_rule_bo2,
    make_rule_bo3,
    r_of_u,
    u_of_r,
)

from . import oracles


# d-points with d1, d2 >= 0 and d1 + d2 <= 1 (the analysis quadrant).
quadrant_points = st.tuples(
    st.floats(0.0, 1.0, allow_nan=False), st.floats(0.0, 1.0, allow_nan=False)
).map(lambda t: (t[0] * (1.0 - t[1]), t[1] * (1.0 - t[0] * (1.0 - t[1]))))

# d-points anywhere in |d1| + |d2| <= 1 (image of the unit square).
diamond_points = st.tuples(
    st.floats(-1.0, 1.0, allow_nan=False), st.floats(0.0, 1.0, allow_nan=False)
).map(lambda t: (t[0] * (1.0 - t[1]), t[1]))


def _close(a, b, tol: float = 1e-12) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return bool(np.max(np.abs(a - b)) <= tol)


# --- parameter change r <-> u ---


def test_u_of_r_frozen_values():
    assert u_of_r(0.25) == pytest.approx(0.6, abs=1e-15)
    assert u_of_r(1.0 / 6.0) == pytest.approx(5.0 / 7.0, abs=1e-15)
    assert u_of_r(1.0 / 9.0) == pytest.approx(0.8, abs=1e-15)
    assert u_of_r(0.0) == 1.0
    assert u_of_r(1.0) == 0.0
    assert r_of_u(0.6) == pytest.approx(0.25, abs=1e-15)


@given(st.floats(0.0, 1.0, allow_nan=False))
def test_u_of_r_roundtrip(r):
    u = u_of_r(r)
    assert 0.0 <= u <= 1.0
    assert r_of_u(u) == pytest.approx(r, abs=1e-12)


# --- H map in density coordinates ---


def test_eval_H_frozen_point():
    m = InducedMap(make_rule_bo3(), 1.0 / 9.0)
    assert _close(m.alpha((0.6, 0.55)), (0.64078525, 0.58216725))


@given(
    st.integers(0, 16),
    st.integers(0, 16),
    st.integers(0, 12),
    st.sampled_from(["bo3", "bo2"]),
)
@settings(max_examples=150, deadline=None)
def test_eval_H_matches_exact_arithmetic(i, j, k, model):
    a1, a2, r = Fraction(i, 16), Fraction(j, 16), Fraction(k, 12)
    if model == "bo3":
        rule, f1, f2 = make_rule_bo3(), oracles.bo3_f, oracles.bo3_f
    else:
        rule, f1, f2 = make_rule_bo2(), oracles.bo2_f1, oracles.bo2_f2
    m = InducedMap(rule, float(r))
    want = oracles.h_map(f1, f2, r, a1, a2)
    assert _close(m.alpha((float(a1), float(a2))), [float(w) for w in want])


@given(
    st.floats(0.0, 1.0, allow_nan=False),
    st.floats(0.0, 1.0, allow_nan=False),
    st.floats(0.0, 1.0, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_eval_H_stays_in_unit_square(a1, a2, r):
    h1, h2 = InducedMap(make_rule_bo3(), r).alpha((a1, a2))
    assert -1e-12 <= h1 <= 1.0 + 1e-12
    assert -1e-12 <= h2 <= 1.0 + 1e-12


# --- closed-form T maps ---


def test_eval_T_trivial_fixed_points():
    for u in (0.0, 0.3, 0.75, 1.0):
        for f in (oracles.eval_T_bo3, oracles.eval_T_bo2):
            assert _close(f(u, (0.0, 0.0)), (0.0, 0.0), tol=0.0)
            assert _close(f(u, (0.0, 1.0)), (0.0, 1.0), tol=0.0)


def test_eval_T_bo3_frozen_point():
    # Exact rational value: (7361/31250, 7283/50000).
    assert _close(oracles.eval_T_bo3(0.8, (0.2, 0.1)), (0.235552, 0.14566), tol=1e-15)


def test_eval_T_bo2_frozen_point():
    # Exact rational value: (6371/25000, 7251/50000).
    assert _close(oracles.eval_T_bo2(0.8, (0.2, 0.1)), (0.25484, 0.14502), tol=1e-15)


def test_eval_T_bo3_odd_in_d1():
    t1, t2 = oracles.eval_T_bo3(0.8, (0.2, 0.1))
    s1, s2 = oracles.eval_T_bo3(0.8, (-0.2, 0.1))
    assert s1 == -t1 and s2 == t2


@given(diamond_points, st.floats(0.0, 1.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_eval_T_odd_in_d1_everywhere(d, u):
    for f in (oracles.eval_T_bo3, oracles.eval_T_bo2):
        t1, t2 = f(u, d)
        s1, s2 = f(u, (-d[0], d[1]))
        assert s1 == pytest.approx(-t1, abs=1e-15)
        assert s2 == pytest.approx(t2, abs=1e-15)


def test_bo2_equals_bo3_at_u_one():
    grid = np.arange(0.0, 1.0 + 1e-12, 0.05)
    for d1 in grid:
        for d2 in grid:
            if d1 + d2 > 1.0 + 1e-12:
                continue
            assert _close(oracles.eval_T_bo2(1.0, (d1, d2)), oracles.eval_T_bo3(1.0, (d1, d2)))


# --- conjugation: T = to_delta . H . to_alpha ---


@given(diamond_points, st.floats(0.0, 1.0, allow_nan=False), st.sampled_from(["bo3", "bo2"]))
@settings(max_examples=150, deadline=None)
def test_conjugation_identity(d, u, model):
    rule = make_rule_bo3() if model == "bo3" else make_rule_bo2()
    closed = oracles.eval_T_bo3 if model == "bo3" else oracles.eval_T_bo2
    m = InducedMap(rule, r_of_u(u))
    assert _close(m.delta(d), closed(m.u, d))


def test_conjugation_identity_on_grid():
    grid = np.arange(0.0, 1.0 + 1e-12, 0.02)
    for u in (0.0, 0.25, 0.5, 2.0 / 3.0, 0.75, 0.9, 1.0):
        for model, closed in (("bo3", oracles.eval_T_bo3), ("bo2", oracles.eval_T_bo2)):
            rule = make_rule_bo3() if model == "bo3" else make_rule_bo2()
            m = InducedMap(rule, r_of_u(u))
            worst = 0.0
            for d1 in grid:
                for d2 in grid:
                    if d1 + d2 > 1.0 + 1e-12:
                        continue
                    a = np.asarray(m.delta((d1, d2)))
                    b = np.asarray(closed(m.u, (d1, d2)))
                    worst = max(worst, float(np.max(np.abs(a - b))))
            assert worst <= 1e-12, (model, u, worst)


# --- map construction ---


def test_induced_map_spaces():
    # one map, stepped in either coordinates: its delta step is its alpha
    # step conjugated, bit for bit
    m = InducedMap(make_rule_bo3(), 1.0 / 9.0)
    assert [f.name for f in dataclasses.fields(m)] == ["rule", "r"]
    assert m.u == u_of_r(1.0 / 9.0)
    assert _close(m.delta((0.2, 0.1)), vd.to_delta(*m.alpha(vd.to_alpha(0.2, 0.1))), tol=0.0)


def test_induced_map_validation():
    with pytest.raises(ValueError):
        InducedMap(make_rule_bo3(), 1.5)
    with pytest.raises(ValueError):
        InducedMap(make_rule_bo3(), -0.1)


# --- invariance of the closed quadrant ---


@given(quadrant_points, st.floats(0.0, 1.0, allow_nan=False))
@settings(max_examples=150, deadline=None)
def test_T_generic_preserves_S(d, u):
    # S = {d1, d2 >= 0, d1 + d2 <= 1} is forward-invariant for both rules
    for rule in (make_rule_bo3(), make_rule_bo2()):
        t1, t2 = InducedMap(rule, r_of_u(u)).delta(d)
        assert t1 >= -1e-12 and t2 >= -1e-12
        assert t1 + t2 <= 1.0 + 1e-12


@given(diamond_points, st.floats(0.0, 1.0, allow_nan=False))
@settings(max_examples=150, deadline=None)
def test_T_preserves_diamond(d, u):
    for f in (oracles.eval_T_bo3, oracles.eval_T_bo2):
        t1, t2 = f(u, d)
        assert abs(t1) + abs(t2) <= 1.0 + 1e-12


# --- orbits ---


def test_iterate_shape_and_start():
    m = InducedMap(make_rule_bo3(), 1.0 / 9.0)
    pts = iterate(m.delta, (0.2, 0.1), 3)
    assert pts.shape == (4, 2)
    assert _close(pts[0], (0.2, 0.1), tol=0.0)
    assert _close(pts[1], oracles.eval_T_bo3(m.u, (0.2, 0.1)))
    assert iterate(m.delta, (0.2, 0.1), 0).shape == (1, 2)


def test_orbit_limit_basins_bo3():
    m = InducedMap(make_rule_bo3(), 1.0 / 9.0)  # u = 0.8
    d2 = fixed_point_locations("bo3", 0.8)["d2*"]
    assert d2[0] == pytest.approx(0.8838834764831848, abs=1e-15)
    assert _close(iterate(m.delta, (0.5, 0.0), 200)[-1], d2, tol=1e-8)
    assert _close(iterate(m.delta, (-0.5, 0.0), 200)[-1], (-d2[0], d2[1]), tol=1e-8)
    # Below the interior threshold every interior start drifts to consensus.
    m_low = InducedMap(make_rule_bo3(), r_of_u(0.5))
    d4 = fixed_point_locations("bo3", 0.5)["d4*"]
    assert _close(iterate(m_low.delta, (0.3, 0.2), 200)[-1], d4, tol=1e-8)


def test_orbit_limit_basins_bo2():
    m = InducedMap(make_rule_bo2(), r_of_u(0.7))
    d2 = fixed_point_locations("bo2", 0.7)["d2*"]
    assert d2[0] == pytest.approx(math.sqrt(0.4) / 0.7, abs=1e-15)
    assert _close(iterate(m.delta, (0.5, 0.02), 200)[-1], d2, tol=1e-8)
    # (0, 0) is fixed at u = 0.4
    d1 = fixed_point_locations("bo2", 0.4)["d1*"]
    pts = iterate(InducedMap(make_rule_bo2(), r_of_u(0.4)).delta, d1, 1)
    assert _close(pts[1], (0.0, 0.0), tol=0.0)
