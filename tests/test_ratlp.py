"""Solver tests: frozen examples plus a vertex-enumeration oracle.

The oracle decides feasibility of a *boxed* system exactly: a nonempty bounded
polyhedron has a vertex, and every vertex is the unique solution of some
n-subset of the constraint rows taken as equalities. Enumerating those basic
points and checking them against all rows is an independent (if exponential)
decision procedure for the small random systems generated here.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from oracles import NonHomogeneousSystem, maximize_strict_count
from vass_asym.ratlp import (
    LpProblem,
    LpSolution,
    con,
    scale_to_integers,
    solve_feasibility,
    solve_linear_system,
)


def test_single_variable_lower_bounds():
    p = LpProblem(("x",), (con({"x": 1}, ">=", 0), con({"x": 1}, ">=", 1)))
    sol = solve_feasibility(p)
    assert sol is not None
    assert sol.assignment["x"] == 1


def test_contradictory_bounds_infeasible():
    p = LpProblem(("x",), (con({"x": 1}, ">=", 0), con({"x": 1}, "<=", -1)))
    assert solve_feasibility(p) is None


def test_equality_system():
    p = LpProblem(
        ("y", "z"),
        (con({"y": 1}, "==", Fraction(2, 3)), con({"z": 1}, "==", Fraction(1, 6))),
    )
    sol = solve_feasibility(p)
    assert sol.assignment == {"y": Fraction(2, 3), "z": Fraction(1, 6)}
    scaled = scale_to_integers(sol)
    assert scaled.assignment == {"y": Fraction(4), "z": Fraction(1)}


def test_free_variables_allowed_negative():
    p = LpProblem(("x",), (con({"x": 1}, "<=", -3),))
    sol = solve_feasibility(p)
    assert sol.assignment["x"] <= -3


# --- the per-candidate reference of the dichotomy solves (tests/oracles.py) ----


def test_strict_count_probing_achievable():
    base = (con({"x": 1}, ">=", 0),)
    p = LpProblem(("x",), base)
    x, achieved = maximize_strict_count(p, (con({"x": 1}, ">=", 0, label="x>0"),))
    assert achieved == frozenset({0})
    assert x["x"] >= 1


def test_strict_count_probing_unachievable():
    base = (con({"x": 1}, "==", 0),)
    p = LpProblem(("x",), base)
    x, achieved = maximize_strict_count(p, (con({"x": 1}, ">=", 0),))
    assert achieved == frozenset()
    assert x["x"] == 0


def test_strict_count_mixed():
    # x = y forced; x > 0 achievable, z > 0 impossible (z == 0), both probed.
    base = (
        con({"x": 1, "y": -1}, "==", 0),
        con({"x": 1}, ">=", 0),
        con({"z": 1}, "==", 0),
    )
    cands = (con({"x": 1}, ">=", 0), con({"z": 1}, ">=", 0))
    x, achieved = maximize_strict_count(LpProblem(("x", "y", "z"), base), cands)
    assert achieved == frozenset({0})
    assert x["x"] == x["y"] >= 1
    assert x["z"] == 0


def test_strict_count_rejects_nonhomogeneous():
    p = LpProblem(("x",), (con({"x": 1}, ">=", 2),))
    with pytest.raises(NonHomogeneousSystem):
        maximize_strict_count(p, (con({"x": 1}, ">=", 0),))


def test_scale_to_integers_preserves_achieved():
    sol = LpSolution({"a": Fraction(3, 4), "b": Fraction(-1, 6)})
    scaled = scale_to_integers(sol)
    assert scaled.assignment == {"a": Fraction(9), "b": Fraction(-2)}
    # a positive factor keeps strict every row the solution was strict on
    row = con({"a": 1, "b": 3}, ">=", 0)
    assert row.value(sol.assignment) > 0 and row.value(scaled.assignment) > 0


def test_determinism_byte_identical():
    base = (
        con({"x": 1, "y": 2}, "<=", 4),
        con({"x": -1, "y": 1}, ">=", -2),
        con({"x": 1}, ">=", 0),
        con({"y": 1}, ">=", 0),
    )
    p = LpProblem(("x", "y"), base)
    a = solve_feasibility(p)
    b = solve_feasibility(p)
    assert repr(a.assignment) == repr(b.assignment)


def test_solve_linear_system_exact():
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    assert solve_linear_system(a, [Fraction(5), Fraction(10)]) == [
        Fraction(1),
        Fraction(3),
    ]
    singular = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert solve_linear_system(singular, [Fraction(0), Fraction(0)]) is None


# --- vertex-enumeration oracle ------------------------------------------------


def _oracle_feasible(nvars: int, rows: list[tuple[list[Fraction], str, Fraction]]) -> bool:
    """Exact feasibility of a boxed system by basic-point enumeration."""

    def satisfied(point: list[Fraction]) -> bool:
        for coeffs, rel, rhs in rows:
            lhs = sum(c * x for c, x in zip(coeffs, point))
            if rel == "==" and lhs != rhs:
                return False
            if rel == ">=" and lhs < rhs:
                return False
            if rel == "<=" and lhs > rhs:
                return False
        return True

    for subset in combinations(range(len(rows)), nvars):
        mat = [rows[i][0] for i in subset]
        rhs = [rows[i][2] for i in subset]
        point = solve_linear_system(mat, rhs)
        if point is not None and satisfied(point):
            return True
    return False


@st.composite
def boxed_systems(draw):
    nvars = draw(st.integers(2, 3))
    names = tuple(f"v{i}" for i in range(nvars))
    nrows = draw(st.integers(1, 5))
    rows = []
    for _ in range(nrows):
        coeffs = [Fraction(draw(st.integers(-4, 4))) for _ in range(nvars)]
        rel = draw(st.sampled_from(["==", ">=", "<="]))
        rhs = Fraction(draw(st.integers(-6, 6)))
        rows.append((coeffs, rel, rhs))
    box = Fraction(8)
    for i in range(nvars):
        unit = [Fraction(1) if j == i else Fraction(0) for j in range(nvars)]
        rows.append((unit, "<=", box))
        rows.append((unit, ">=", -box))
    return names, rows


@given(boxed_systems())
@settings(max_examples=150, deadline=None)
def test_feasibility_matches_vertex_oracle(system):
    names, rows = system
    constraints = tuple(
        con(dict(zip(names, coeffs)), rel, rhs) for coeffs, rel, rhs in rows
    )
    got = solve_feasibility(LpProblem(names, constraints))
    expected = _oracle_feasible(len(names), rows)
    assert (got is not None) == expected
    if got is not None:
        for c in constraints:
            assert c.holds(got.assignment)
