"""The growth dichotomy for strongly connected classes, and the DAG pipeline.

Per class (maximal end component) two homogeneous rational systems drive every
label decision:

System (I) — pumping flows. Unknown x: one nonnegative value per internal
transition. Constraints: componentwise nonnegative total counter effect
``sum_t x(t) u_t >= 0``; flow conservation at every state; and out of every
probabilistic state the flow splits proportionally to the transition
probabilities (``x(t) = P(t) * outflow(source)``). A solution with
``sum_t x(t) u_t(c) > 0`` pumps counter c quadratically along runs that can
afford to stay in the class linearly long; ``x(t) > 0`` does the same for the
use count of t.

System (II) — ranking functions. Unknowns: nonnegative counter coefficients
y(c) and state potentials z(p); rank(p, v) = z(p) + <v, y>. Constraints: the
rank never increases along controlled transitions and never increases in
expectation out of probabilistic states. ``y(c) > 0`` caps counter c linearly;
a strictly decreasing row caps the corresponding transition's use count.

The candidates come in complementary pairs, and exactly one side of each pair
is achievable (the ranking/flow dichotomy; Tucker's strictly complementary
solutions): for every counter, y(c) > 0 or a flow pumps it; for every
controlled transition, its rank row is strict or a flow uses it; for every
probabilistic state, its expected rank row is strict or a flow leaves it.
`compute_maximal_solutions` walks the pairs and probes one side at a time,
the ranking first, so most probes are feasible; `check.solve_failures`
checks the result's maximality from the serialized witnesses alone.

The DAG pipeline walks a type (class sequence): counters already pumped to a
quadratic lower bound have their updates zeroed in later classes — the run can
afford to pay them — which can promote further counters; promotions are
monotone and never revert. The termination time and the transition use counts
are read off the same walk, from the zeroed classes' maximal flows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .graph import Mec, is_dag_like, mec_decomposition, mec_quotient_edges, transition_to_mec
from .model import (
    NONDET,
    PROB,
    Counter,
    InternalError,
    Measure,
    Termination,
    Transition,
    TransitionCount,
    UnknownTransition,
    VassMdp,
    measure_key,
    zero_counters,
)
from .ratlp import LpProblem, LpSolution, con, scale_to_integers, solve_feasibility


class NotDagLike(ValueError):
    def __init__(self, message: str = "class graph has mutually reachable classes"):
        super().__init__(message)


class InvalidType(ValueError):
    pass


class Label(str, Enum):
    """Estimate vocabulary shared by both report layers."""

    TIGHT_ZERO = "TightZero"
    TIGHT_LINEAR = "TightLinear"
    TIGHT_QUADRATIC = "TightQuadratic"
    LOWER_QUADRATIC = "LowerQuadratic"
    UPPER_LINEAR = "UpperLinear"
    UPPER_TYPE_LENGTH = "UpperTypeLength"
    UNBOUNDED = "Unbounded"


@dataclass(frozen=True)
class Estimate:
    """One (measure, type) entry of a report.

    `exact` records whether the label is fully backed by the classification
    theory for this regime; entries extended beyond the verbatim case analysis
    carry exact=False and say why in `note`. `tag` is a machine-readable name
    of the justifying fact. `witnesses` holds the exact objects the claim
    re-substitutes against (flows, rankings, stationary distributions, ...).
    """

    label: Label
    tag: str
    exact: bool = True
    bound: Optional[int] = None  # payload for UPPER_TYPE_LENGTH
    note: Optional[str] = None
    beyond_quadratic_hint: bool = False
    witnesses: dict = field(default_factory=dict)
    # the type's DAG pipeline the label was read off (d >= 2); the same for
    # every measure along the type, so a report emits it once per type
    pipeline: Optional[tuple[DagPipelineStep, ...]] = None


@dataclass(frozen=True)
class SystemIWitness:
    """Integer-scaled maximal pumping flow of one class."""

    mec_id: str
    x: dict[str, Fraction]
    positive_counters: frozenset[int]       # counters c with sum_t x(t) u_t(c) > 0
    positive_transitions: frozenset[str]    # transitions with x(t) > 0


@dataclass(frozen=True)
class RankingFunction:
    """Integer-scaled maximal ranking solution of one class."""

    mec_id: str
    y: dict[int, Fraction]
    z: dict[str, Fraction]
    strict_nondet: frozenset[str]   # controlled transitions with rank delta < 0
    strict_prob: frozenset[str]     # probabilistic states with expected delta < 0

    def rank(self, state: str, counters: Sequence[int]) -> Fraction:
        return self.z[state] + sum(
            (self.y[c] * v for c, v in zip(sorted(self.y), counters)), Fraction(0)
        )


def _xvar(tid: str) -> str:
    return f"x:{tid}"


def _yvar(c: int) -> str:
    return f"y:{c}"


def _zvar(name: str) -> str:
    return f"z:{name}"


def build_system_I(m: VassMdp, mec: Mec) -> LpProblem:
    """Pumping-flow system over the class's internal transitions.

    Candidates (in order): one per counter (positive total effect), then one
    per internal transition (positive flow).
    """
    tids = sorted(mec.transitions)
    variables = tuple(_xvar(t) for t in tids)
    constraints = [con({_xvar(t): 1}, ">=", 0, label=f"nonneg:{t}") for t in tids]

    for c in range(1, m.dimension + 1):
        coeffs = {}
        for t in tids:
            u = m.transition(t).update[c - 1]
            if u:
                coeffs[_xvar(t)] = coeffs.get(_xvar(t), 0) + u
        constraints.append(con(coeffs, ">=", 0, label=f"counter:{c}"))

    for s in sorted(mec.states):
        coeffs: dict[str, Fraction] = {}
        for t in tids:
            tr = m.transition(t)
            if tr.target == s:
                coeffs[_xvar(t)] = coeffs.get(_xvar(t), Fraction(0)) + 1
            if tr.source == s:
                coeffs[_xvar(t)] = coeffs.get(_xvar(t), Fraction(0)) - 1
        constraints.append(con(coeffs, "==", 0, label=f"flow:{s}"))

    for s in sorted(mec.states):
        if m.kind(s) != PROB:
            continue
        outs = m.out(s)
        if not all(t.tid in mec.transitions for t in outs):
            raise InternalError(f"class closure violated at {s} in {mec.mid}")
        for t in outs:
            coeffs = {_xvar(o.tid): -t.prob for o in outs}
            coeffs[_xvar(t.tid)] = coeffs.get(_xvar(t.tid), Fraction(0)) + 1
            constraints.append(con(coeffs, "==", 0, label=f"prop:{t.tid}"))

    candidates = []
    for c in range(1, m.dimension + 1):
        coeffs = {
            _xvar(t): m.transition(t).update[c - 1]
            for t in tids
            if m.transition(t).update[c - 1]
        }
        candidates.append(con(coeffs, ">=", 0, label=f"counter:{c}"))
    for t in tids:
        candidates.append(con({_xvar(t): 1}, ">=", 0, label=f"transition:{t}"))

    return LpProblem(variables, tuple(constraints), tuple(candidates))


def _rank_row(m: VassMdp, t: Transition) -> dict[str, Fraction]:
    """Coefficients of rank(target) - rank(source) + <u, y> as an LP row."""
    coeffs: dict[str, Fraction] = {}
    coeffs[_zvar(t.target)] = coeffs.get(_zvar(t.target), Fraction(0)) + 1
    coeffs[_zvar(t.source)] = coeffs.get(_zvar(t.source), Fraction(0)) - 1
    for c in range(1, m.dimension + 1):
        u = t.update[c - 1]
        if u:
            coeffs[_yvar(c)] = coeffs.get(_yvar(c), Fraction(0)) + u
    return {k: v for k, v in coeffs.items() if v != 0}


def build_system_II(m: VassMdp, mec: Mec) -> LpProblem:
    """Ranking system over the class.

    Candidates (in order): one per counter (y(c) > 0), then one per controlled
    internal transition (strict rank decrease), then one per probabilistic
    member state (strict expected decrease).
    """
    tids = sorted(mec.transitions)
    states = sorted(mec.states)
    variables = tuple(_yvar(c) for c in range(1, m.dimension + 1)) + tuple(
        _zvar(s) for s in states
    )
    constraints = [
        con({_yvar(c): 1}, ">=", 0, label=f"nonneg:y{c}")
        for c in range(1, m.dimension + 1)
    ] + [con({_zvar(s): 1}, ">=", 0, label=f"nonneg:z{s}") for s in states]

    nondet_rows: list[tuple[str, dict[str, Fraction]]] = []
    prob_rows: list[tuple[str, dict[str, Fraction]]] = []
    for t in tids:
        tr = m.transition(t)
        if m.kind(tr.source) == NONDET:
            nondet_rows.append((t, _rank_row(m, tr)))
    for s in states:
        if m.kind(s) != PROB:
            continue
        coeffs: dict[str, Fraction] = {}
        for t in m.out(s):
            for k, v in _rank_row(m, t).items():
                coeffs[k] = coeffs.get(k, Fraction(0)) + t.prob * v
        prob_rows.append((s, {k: v for k, v in coeffs.items() if v != 0}))

    for t, row in nondet_rows:
        constraints.append(con(row, "<=", 0, label=f"nondet:{t}"))
    for s, row in prob_rows:
        constraints.append(con(row, "<=", 0, label=f"prob:{s}"))

    candidates = [
        con({_yvar(c): 1}, ">=", 0, label=f"counter:{c}")
        for c in range(1, m.dimension + 1)
    ]
    for t, row in nondet_rows:
        candidates.append(con({k: -v for k, v in row.items()}, ">=", 0, label=f"nondet:{t}"))
    for s, row in prob_rows:
        candidates.append(con({k: -v for k, v in row.items()}, ">=", 0, label=f"prob:{s}"))

    return LpProblem(tuple(variables), tuple(constraints), tuple(candidates))


def _achieved_labels(problem: LpProblem, solution: LpSolution) -> set[str]:
    return {problem.candidates[i].label for i in solution.achieved_strict}


def _candidate_pairs(m: VassMdp, p1: LpProblem, p2: LpProblem) -> list[tuple[int, int]]:
    """(System I, System II) candidate indices, one pair per System II
    candidate and in its order: a counter's effect and its coefficient y(c);
    a controlled transition's flow and its rank row; the flow out of a
    probabilistic state (read on its first transition, the others are
    proportional) and its expected rank row."""
    index_I = {cand.label: i for i, cand in enumerate(p1.candidates)}
    pairs = []
    for j, cand in enumerate(p2.candidates):
        kind, name = cand.label.split(":", 1)
        if kind == "counter":
            partner = cand.label
        elif kind == "nondet":
            partner = f"transition:{name}"
        else:
            partner = f"transition:{m.out(name)[0].tid}"
        pairs.append((index_I[partner], j))
    return pairs


def _probe(problem: LpProblem, idx: int) -> Optional[dict[str, Fraction]]:
    """A solution with candidate `idx` at least 1, or None."""
    cand = problem.candidates[idx]
    sol = solve_feasibility(
        LpProblem(problem.variables, problem.constraints + (cand.with_rhs(1),))
    )
    return None if sol is None else sol.assignment


def _strict(problem: LpProblem, x: dict[str, Fraction]) -> frozenset[int]:
    return frozenset(i for i, cand in enumerate(problem.candidates) if cand.value(x) > 0)


def _sum_witnesses(
    problem: LpProblem, witnesses: list[dict[str, Fraction]], strict: set[int]
) -> LpSolution:
    """The sum of homogeneous solutions, re-checked: it solves the system,
    leaves no candidate row negative, and is strict on exactly the candidates
    some summand is strict on."""
    total = {v: sum((w[v] for w in witnesses), Fraction(0)) for v in problem.variables}
    for c in problem.constraints:
        if not c.holds(total):
            raise InternalError("sum of homogeneous witnesses left the system")
    if any(cand.value(total) < 0 for cand in problem.candidates):
        raise InternalError("sum of homogeneous witnesses has a negative candidate row")
    achieved = _strict(problem, total)
    if achieved != strict:
        raise InternalError("sum is not strict on exactly its summands' candidates")
    return LpSolution(assignment=total, achieved_strict=achieved)


def compute_maximal_solutions(m: VassMdp, mec: Mec) -> tuple[SystemIWitness, RankingFunction]:
    """Integer-scaled maximal solutions of systems (I) and (II) for one class.

    Maximal: strict on every achievable candidate. The candidates come in
    complementary pairs (`_candidate_pairs`), exactly one side of each
    achievable. The pairs are walked in order; a pair that an earlier witness
    of either system is already strict on is skipped, otherwise System (II)
    is probed with its candidate at >= 1 and, if that is infeasible, System
    (I) with its own, which must then be feasible. Each system's witnesses
    are summed (homogeneous systems are closed under addition, and every
    candidate row is nonnegative on their solutions), so each sum is strict
    on one side of every pair, the achievable one. After scaling, every
    nonzero entry is >= 1.
    """
    p1, p2 = build_system_I(m, mec), build_system_II(m, mec)
    pairs = _candidate_pairs(m, p1, p2)
    flows: list[dict[str, Fraction]] = []
    rankings: list[dict[str, Fraction]] = []
    strict1: set[int] = set()
    strict2: set[int] = set()
    for i, j in pairs:
        if i in strict1 or j in strict2:
            continue
        y = _probe(p2, j)
        if y is not None:
            rankings.append(y)
            strict2 |= _strict(p2, y)
            continue
        x = _probe(p1, i)
        if x is None:
            raise InternalError(
                f"dichotomy violated in {mec.mid}: neither {p1.candidates[i].label} "
                f"of the flow system nor {p2.candidates[j].label} of the ranking "
                "system can be made strict"
            )
        flows.append(x)
        strict1 |= _strict(p1, x)
    s1 = scale_to_integers(_sum_witnesses(p1, flows, strict1))
    s2 = scale_to_integers(_sum_witnesses(p2, rankings, strict2))
    for i, j in pairs:
        if (i in s1.achieved_strict) == (j in s2.achieved_strict):
            raise InternalError(
                f"pair {p1.candidates[i].label} / {p2.candidates[j].label} in "
                f"{mec.mid} is not strict on exactly one side"
            )

    labels1 = _achieved_labels(p1, s1)
    witness = SystemIWitness(
        mec_id=mec.mid,
        x={t: s1.assignment[_xvar(t)] for t in sorted(mec.transitions)},
        positive_counters=frozenset(
            c for c in range(1, m.dimension + 1) if f"counter:{c}" in labels1
        ),
        positive_transitions=frozenset(
            t for t in mec.transitions if f"transition:{t}" in labels1
        ),
    )

    labels2 = _achieved_labels(p2, s2)
    ranking = RankingFunction(
        mec_id=mec.mid,
        y={c: s2.assignment[_yvar(c)] for c in range(1, m.dimension + 1)},
        z={s: s2.assignment[_zvar(s)] for s in sorted(mec.states)},
        strict_nondet=frozenset(
            t
            for t in mec.transitions
            if m.kind(m.transition(t).source) == NONDET and f"nondet:{t}" in labels2
        ),
        strict_prob=frozenset(
            s for s in mec.states if m.kind(s) == PROB and f"prob:{s}" in labels2
        ),
    )
    return witness, ranking


def rank_delta(m: VassMdp, r: RankingFunction, t: Transition) -> Fraction:
    """rank(target, v + u) - rank(source, v): independent of v."""
    return (
        r.z[t.target]
        - r.z[t.source]
        + sum((Fraction(u) * r.y[c + 1] for c, u in enumerate(t.update)), Fraction(0))
    )


# --- DAG pipeline ---------------------------------------------------------------


@dataclass
class DagPipelineStep:
    mec_id: str
    newly_pumped: frozenset[int]
    witness: SystemIWitness          # of the zeroed class
    ranking: RankingFunction         # of the zeroed class
    zeroed: frozenset[int]           # counters zeroed before this class


@dataclass
class DagPipelineState:
    """Walk state: the monotonically growing pumped-counter set plus a record
    of each class's contribution (for reports and re-verification). `hint`:
    the tracked measure's first pumping class found a fluctuation-limited
    pump."""

    pumped: frozenset[int]
    steps: list[DagPipelineStep]
    hint: bool = False


def _newly_pumped(m: VassMdp, ranking: RankingFunction, pumped: frozenset[int]) -> frozenset[int]:
    """The counters not yet pumped whose rank coefficient is zero."""
    return frozenset(
        c for c in range(1, m.dimension + 1) if c not in pumped and ranking.y.get(c) == 0
    )


def _pumps(measure: Measure, witness: SystemIWitness, newly: frozenset[int]) -> bool:
    """Does the zeroed class pump the measure? A counter where its rank
    coefficient first drops to zero; the termination time where the class
    admits a nonzero flow; a use count where a flow uses the transition. The
    last two are where a step counter appended to the model would be pumped:
    it only ever increments, so it changes neither system's answer for the
    original counters."""
    if isinstance(measure, Counter):
        return measure.index in newly
    if isinstance(measure, Termination):
        return bool(witness.positive_transitions)
    return measure.tid in witness.positive_transitions


def _pump_probe(m: VassMdp, mec: Mec, measure: Measure) -> dict[str, Fraction]:
    """A flow of the class with its measure row at least 1: total effect on
    the counter, total flow (termination time) or flow through the transition.
    It exists wherever `_pumps` holds; that is the dichotomy."""
    p1 = build_system_I(m, mec)
    if isinstance(measure, Termination):
        row = con({_xvar(t): 1 for t in mec.transitions}, ">=", 0, label="steps")
    else:
        label = (
            f"counter:{measure.index}"
            if isinstance(measure, Counter)
            else f"transition:{measure.tid}"
        )
        row = next(cand for cand in p1.candidates if cand.label == label)
    sol = solve_feasibility(LpProblem(p1.variables, p1.constraints + (row.with_rhs(1),)))
    if sol is None:
        raise InternalError(
            f"dichotomy violated: {measure_key(measure)} not pumpable in {mec.mid}"
        )
    return {t: sol.assignment[_xvar(t)] for t in sorted(mec.transitions)}


def _fluctuation_hint(
    m: VassMdp, mec: Mec, pump_x: dict[str, Fraction], pumped: frozenset[int]
) -> bool:
    """True when the pump leans on an already-pumped counter without spending
    it in expectation — the signature of growth beyond the generic quadratic
    lower bound (the pump is limited by fluctuations, not by budget)."""
    support = [t for t, v in pump_x.items() if v > 0]
    touched = {
        c
        for c in pumped
        if any(m.transition(t).update[c - 1] != 0 for t in support)
    }
    if not touched:
        return False
    for c in touched:
        drift = sum(
            (pump_x[t] * m.transition(t).update[c - 1] for t in support),
            Fraction(0),
        )
        if drift < 0:
            return False
    return True


def run_dag_pipeline(
    m: VassMdp, beta_mecs: Sequence[Mec], track_hint_for: Optional[Measure] = None
) -> DagPipelineState:
    """Walk the type, zeroing already-pumped counters before each class.

    With `track_hint_for`, the first class that pumps that measure after
    some counter was zeroed probes for a fluctuation-limited pump.
    """
    pumped: frozenset[int] = frozenset()
    steps: list[DagPipelineStep] = []
    tracking = track_hint_for is not None
    hint = False
    for mec in beta_mecs:
        zeroed_model = zero_counters(m, pumped) if pumped else m
        witness, ranking = compute_maximal_solutions(zeroed_model, mec)
        newly = _newly_pumped(m, ranking, pumped)
        if tracking and _pumps(track_hint_for, witness, newly):
            tracking = False
            if pumped:
                pump_x = _pump_probe(zeroed_model, mec, track_hint_for)
                hint = _fluctuation_hint(m, mec, pump_x, pumped)
        steps.append(
            DagPipelineStep(
                mec_id=mec.mid,
                newly_pumped=newly,
                witness=witness,
                ranking=ranking,
                zeroed=pumped,
            )
        )
        pumped = pumped | newly
    return DagPipelineState(pumped=pumped, steps=steps, hint=hint)


def _validate_type(
    m: VassMdp, beta: Sequence[str], mecs: Sequence[Mec]
) -> list[Mec]:
    by_id = {mec.mid: mec for mec in mecs}
    if not beta:
        raise InvalidType("a type must contain at least one class")
    unknown = [b for b in beta if b not in by_id]
    if unknown:
        raise InvalidType(f"unknown class ids {unknown}")
    for a, b in zip(beta, beta[1:]):
        if a == b:
            raise InvalidType("types collapse consecutive duplicates")
    edges = mec_quotient_edges(m, mecs)
    for a, b in zip(beta, beta[1:]):
        if b not in edges[a]:
            raise InvalidType(f"step {a} -> {b} is not realizable")
    return [by_id[b] for b in beta]


def classify_dag(
    m: VassMdp,
    beta: Sequence[str],
    measure: Measure,
    mecs: Optional[Sequence[Mec]] = None,
) -> Estimate:
    """Asymptotic estimate of one measure conditioned on one type, for any
    dimension, on DAG-like models.

    All three measures read the same pipeline. Counters get the exact
    tight-linear / lower-quadratic dichotomy. The termination time is
    quadratic as soon as a zeroed class admits a nonzero pumping flow, and
    linear otherwise: every class transition then has a strict rank row. A
    single transition's use count is quadratic when its zeroed class admits a
    flow through it; otherwise a strict rank row caps the count linearly but
    promises no uses, hence `UpperLinear`.
    """
    if mecs is None:
        mecs = mec_decomposition(m)
    if not is_dag_like(m, mecs):
        raise NotDagLike()
    beta = tuple(beta)
    beta_mecs = _validate_type(m, beta, mecs)

    if isinstance(measure, Counter):
        if not (1 <= measure.index <= m.dimension):
            raise ValueError(f"counter index {measure.index} out of range")
    elif isinstance(measure, TransitionCount):
        tid = measure.tid
        if not m.has_transition(tid):
            raise UnknownTransition(tid)
        towner = transition_to_mec(mecs)
        if tid not in towner:
            return Estimate(
                label=Label.UPPER_TYPE_LENGTH,
                bound=len(beta),
                tag="transient-transition-geometric-tail",
                exact=True,
                note=(
                    "the transition lies in no class; along a fixed type its "
                    "use count has a geometric tail, so any constant is an "
                    "upper estimate"
                ),
            )
        if towner[tid] not in beta:
            return Estimate(
                label=Label.TIGHT_ZERO,
                tag="class-not-in-type",
                exact=True,
                note="the transition's class is never visited by this type",
            )
    elif not isinstance(measure, Termination):
        raise TypeError(f"not a measure: {measure!r}")

    state = run_dag_pipeline(m, beta_mecs, track_hint_for=measure)
    return _estimate(state, measure, beta)


def _estimate(state: DagPipelineState, measure: Measure, beta: Sequence[str]) -> Estimate:
    """The label the type's pipeline gives a measure: `LowerQuadratic` where a
    step pumps it, else `UpperLinear` for a use count and `TightLinear` for a
    counter or the termination time."""
    pipeline = tuple(state.steps)
    promoted = next((s for s in pipeline if _pumps(measure, s.witness, s.newly_pumped)), None)
    if promoted is not None:
        return Estimate(
            label=Label.LOWER_QUADRATIC,
            tag="flow-pumping-quadratic-lower",
            exact=True,
            beyond_quadratic_hint=state.hint,
            note=f"pumped in class {promoted.mec_id} along type {','.join(beta)}"
            + ("; fluctuation-limited pump, growth may exceed degree 2" if state.hint else ""),
            pipeline=pipeline,
        )
    if isinstance(measure, TransitionCount):
        return Estimate(
            label=Label.UPPER_LINEAR,
            tag="rank-coefficient-positive",
            exact=True,
            pipeline=pipeline,
            note=(
                "no zeroed flow uses the transition, so a strict rank row caps "
                "its use count linearly; no lower bound is claimed — the count "
                "may be zero"
            ),
        )
    return Estimate(
        label=Label.TIGHT_LINEAR,
        tag="rank-coefficient-positive",
        exact=True,
        pipeline=pipeline,
    )
