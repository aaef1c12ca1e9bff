"""Exact rational linear feasibility solving.

Everything here is `fractions.Fraction`; no floats enter or leave. The solver
is a Phase-I tableau simplex with Bland's rule (least-index entering column,
least-basis-index tie break on the ratio test), which guarantees termination
and makes the output a deterministic function of the input — the same problem
always yields the same witness, byte for byte.

Free variables are handled by the classic split ``v = v_plus - v_minus``; the
callers' systems carry their own nonnegativity rows where needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from .model import InternalError

RationalLike = Union[int, str, Fraction]


class Relation(Enum):
    EQ = "=="
    GEQ = ">="
    LEQ = "<="


_REL_FROM_STR = {r.value: r for r in Relation}


@dataclass(frozen=True)
class LinearConstraint:
    """`sum coeffs[v] * v  (relation)  rhs` over the problem's variables."""

    coeffs: tuple[tuple[str, Fraction], ...]
    relation: Relation
    rhs: Fraction
    label: str = ""

    def value(self, assignment: Mapping[str, Fraction]) -> Fraction:
        return sum((c * assignment[v] for v, c in self.coeffs), Fraction(0))

    def holds(self, assignment: Mapping[str, Fraction]) -> bool:
        lhs = self.value(assignment)
        if self.relation is Relation.EQ:
            return lhs == self.rhs
        if self.relation is Relation.GEQ:
            return lhs >= self.rhs
        return lhs <= self.rhs

    def with_rhs(self, rhs: RationalLike) -> "LinearConstraint":
        return LinearConstraint(self.coeffs, self.relation, Fraction(rhs), self.label)


def con(
    coeffs: Mapping[str, RationalLike],
    relation: Union[Relation, str],
    rhs: RationalLike = 0,
    label: str = "",
) -> LinearConstraint:
    """Convenience constructor coercing coefficients to Fraction."""
    rel = _REL_FROM_STR[relation] if isinstance(relation, str) else relation
    items = tuple(sorted((v, Fraction(c)) for v, c in coeffs.items()))
    return LinearConstraint(items, rel, Fraction(rhs), label)


@dataclass(frozen=True)
class LpProblem:
    variables: tuple[str, ...]
    constraints: tuple[LinearConstraint, ...]


@dataclass
class LpSolution:
    assignment: dict[str, Fraction]


def _phase_one(
    rows: list[list[Fraction]], b: list[Fraction], ncols: int
) -> Optional[list[Fraction]]:
    """Minimize the sum of artificials; return structural column values or None."""
    m = len(rows)
    if m == 0:
        return [Fraction(0)] * ncols
    total = ncols + m
    zero, one = Fraction(0), Fraction(1)
    tableau = [
        rows[i] + [one if j == i else zero for j in range(m)] + [b[i]]
        for i in range(m)
    ]
    basis = list(range(ncols, total))
    # Reduced-cost row for "minimize sum of artificial columns"; obj[-1] holds
    # minus the current objective value.
    obj = [zero] * total + [zero]
    for j in range(ncols, total):
        obj[j] = one
    for row in tableau:
        for j in range(total + 1):
            obj[j] -= row[j]

    while True:
        enter = -1
        for j in range(total):  # Bland: least improving index
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best: Optional[Fraction] = None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][total] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            raise InternalError("phase-one objective is bounded below; no pivot row")
        piv = tableau[leave][enter]
        tableau[leave] = [x / piv for x in tableau[leave]]
        pivot_row = tableau[leave]
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [x - f * y for x, y in zip(tableau[i], pivot_row)]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [x - f * y for x, y in zip(obj, pivot_row)]
        basis[leave] = enter

    if -obj[total] != 0:  # leftover artificial mass: infeasible
        return None
    values = [zero] * total
    for i, bi in enumerate(basis):
        values[bi] = tableau[i][total]
    return values[:ncols]


def solve_feasibility(problem: LpProblem) -> Optional[LpSolution]:
    """Exact feasibility for the base constraints; None means infeasible.

    Infeasibility is an ordinary value here, not an error: several callers
    branch on it (the growth dichotomy is literally "which of two systems is
    feasible").
    """
    var_index = {v: i for i, v in enumerate(problem.variables)}
    ncols = 2 * len(problem.variables)
    slack_total = sum(1 for c in problem.constraints if c.relation is not Relation.EQ)
    total = ncols + slack_total
    zero = Fraction(0)

    rows: list[list[Fraction]] = []
    rhss: list[Fraction] = []
    si = 0
    for c in problem.constraints:
        row = [zero] * total
        for v, coef in c.coeffs:
            if v not in var_index:
                raise ValueError(f"constraint uses undeclared variable {v!r}")
            i = var_index[v]
            row[2 * i] += coef
            row[2 * i + 1] -= coef
        if c.relation is Relation.GEQ:
            row[ncols + si] = Fraction(-1)
            si += 1
        elif c.relation is Relation.LEQ:
            row[ncols + si] = Fraction(1)
            si += 1
        rhs = c.rhs
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
        rows.append(row)
        rhss.append(rhs)

    values = _phase_one(rows, rhss, total)
    if values is None:
        return None
    assignment = {
        v: values[2 * i] - values[2 * i + 1] for v, i in var_index.items()
    }
    for c in problem.constraints:  # exact re-substitution, cheap and load-bearing
        if not c.holds(assignment):
            raise InternalError(f"simplex returned a non-solution for {c.label or c}")
    return LpSolution(assignment=assignment)


def scale_to_integers(solution: LpSolution) -> LpSolution:
    """Scale a rational solution of a homogeneous system to integers.

    Multiplies by the positive lcm of denominators, so every nonzero entry
    becomes an integer of magnitude >= 1.
    """
    dens = [v.denominator for v in solution.assignment.values() if v != 0]
    factor = math.lcm(*dens) if dens else 1
    scaled = {v: val * factor for v, val in solution.assignment.items()}
    if any(v.denominator != 1 for v in scaled.values()):
        raise InternalError("scaling by the lcm of denominators left a fraction")
    return LpSolution(assignment=scaled)


def solve_linear_system(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> Optional[list[Fraction]]:
    """Unique exact solution of a square linear system, or None if singular.

    Plain fraction Gaussian elimination; used for Markov-chain value and
    stationary-distribution solves where the matrix is nonsingular by
    construction.
    """
    n = len(matrix)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        piv = aug[col][col]
        aug[col] = [x / piv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]
