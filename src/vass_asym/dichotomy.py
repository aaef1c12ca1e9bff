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

`build_systems` returns both systems and their complementary pairs, each a
(System I row, System II row); exactly one side of each pair can be made
strict (the ranking/flow dichotomy; Tucker's strictly complementary
solutions): for every counter, y(c) > 0 or a flow pumps it; for every
controlled transition, its rank row is strict or a flow uses it; for every
probabilistic state, its expected rank row is strict or a flow leaves it.
`compute_maximal_solutions` walks the pairs and probes one side at a time,
the side most pairs land on first, so most probes are feasible: the flow
with one counter, the ranking with two or more (in a timed pass of the
benchmark's analyze workloads at seed 1, 28 of 42 one-counter pairs land on
the flow side and 184 of 257 pairs with d >= 2 on the ranking side). Either
order makes the same feasible probe on every pair, hence the same
witnesses; only the infeasible probes differ. `check.solve_failures` checks
the result's maximality from the serialized witnesses alone. `counter_pair`
takes the walk's first step alone: whether the class pumps counter 1, which
is all a one-counter energy question needs of a class that does; the walk
can then start from the ranking it found.

The DAG pipeline (`run_dag_pipeline`) walks a type (class sequence): counters
already pumped to a quadratic lower bound have their updates zeroed in later
classes — the run can afford to pay them — which can promote further counters;
promotions are monotone and never revert. The walk does not depend on the
measure: counters, the termination time and the use counts all read it, off
the zeroed classes' maximal solutions. `classify_dag` labels one (measure,
type) of a DAG-like model at the measure's first pumping step and returns the
pipeline with the label. Where counters were zeroed before that step, the
fluctuation hint is read off that class's solve with nothing zeroed, which
the caller has already made (every class is a one-class type, and those are
walked first), so the hint costs no LP. A report lists each step's solve
once per (zeroed counters, class), under `solves`, and carries no pipeline:
the checker reads each type's pipeline off those solves by the same zeroing
rule (`check._pipeline`), and each hint off the same unzeroed solve.
`classify_dag` checks none of its inputs: the analysis
entry point (`cli.build_analysis`) derives the classes, the realizable types
and the transition owners once and validates the measures before asking for
any label. `use_count_outside_type` holds the two use-count rules of every
dimension; the one-counter case table asks it too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .graph import Mec
from .model import (
    NONDET,
    PROB,
    Counter,
    InternalError,
    Measure,
    Termination,
    Transition,
    TransitionCount,
    VassMdp,
    zero_counters,
)
from .ratlp import (
    LinearConstraint,
    LpProblem,
    LpSolution,
    con,
    scale_to_integers,
    solve_feasibility,
)


class NotDagLike(ValueError):
    def __init__(self, message: str = "class graph has mutually reachable classes"):
        super().__init__(message)


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


def use_count_outside_type(
    measure: Measure, beta: Sequence[str], owner: Mapping[str, str]
) -> Optional[Estimate]:
    """The use-count rules of every regime, or None where they do not apply.
    A transition in no class is used a number of times with a geometric
    tail along any type: `UpperTypeLength`, bound |beta|. A transition whose
    class `beta` never visits is never used: `TightZero`."""
    if not isinstance(measure, TransitionCount):
        return None
    tid = measure.tid
    cls = owner.get(tid)
    if cls is None:
        return Estimate(
            Label.UPPER_TYPE_LENGTH,
            "transient-transition-geometric-tail",
            True,
            bound=len(beta),
            note="uses are bounded in expectation independently of the start value; "
            "tail decays geometrically",
            witnesses={"transition": tid},
        )
    if cls not in beta:
        witnesses = {"transition": tid, "class": cls}
        return Estimate(Label.TIGHT_ZERO, "class-not-in-type", True, witnesses=witnesses)
    return None


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


def _xvar(tid: str) -> str:
    return f"x:{tid}"


def _yvar(c: int) -> str:
    return f"y:{c}"


def _zvar(name: str) -> str:
    return f"z:{name}"


def _effect_row(m: VassMdp, tids: Sequence[str], c: int) -> LinearConstraint:
    """A flow's total effect on counter c, at least 0."""
    coeffs = {_xvar(t): m.transition(t).update[c - 1] for t in tids}
    return con({k: u for k, u in coeffs.items() if u}, ">=", 0, label=f"counter:{c}")


def _use_row(tid: str) -> LinearConstraint:
    """A flow's use of one transition, at least 0."""
    return con({_xvar(tid): 1}, ">=", 0, label=f"transition:{tid}")


def _flow_system(m: VassMdp, mec: Mec) -> LpProblem:
    """System (I): pumping flows over the class's internal transitions."""
    tids = sorted(mec.transitions)
    constraints = [con({_xvar(t): 1}, ">=", 0, label=f"nonneg:{t}") for t in tids]
    constraints += [_effect_row(m, tids, c) for c in range(1, m.dimension + 1)]

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

    return LpProblem(tuple(_xvar(t) for t in tids), tuple(constraints))


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


def _expected_rank_row(m: VassMdp, s: str) -> dict[str, Fraction]:
    """The expected rank change out of a probabilistic state as an LP row."""
    coeffs: dict[str, Fraction] = {}
    for t in m.out(s):
        for k, v in _rank_row(m, t).items():
            coeffs[k] = coeffs.get(k, Fraction(0)) + t.prob * v
    return {k: v for k, v in coeffs.items() if v != 0}


Pair = tuple[LinearConstraint, LinearConstraint]


def build_systems(m: VassMdp, mec: Mec) -> tuple[LpProblem, LpProblem, list[Pair]]:
    """Systems (I) and (II) of a class and their complementary pairs.

    A pair is a (System I row, System II row) of homogeneous ``>= 0`` rows
    that hold on every solution of their systems. In order: per counter, the
    flow's total effect and y(c); per controlled internal transition (tid
    order), its flow and its rank decrease; per probabilistic member state,
    the flow on its first out-transition (the others are proportional) and
    its expected rank decrease.
    """
    tids = sorted(mec.transitions)
    states = sorted(mec.states)
    counters = range(1, m.dimension + 1)
    variables = tuple(_yvar(c) for c in counters) + tuple(_zvar(s) for s in states)
    constraints = [con({_yvar(c): 1}, ">=", 0, label=f"nonneg:y{c}") for c in counters]
    constraints += [con({_zvar(s): 1}, ">=", 0, label=f"nonneg:z{s}") for s in states]
    pairs = [
        (_effect_row(m, tids, c), con({_yvar(c): 1}, ">=", 0, label=f"counter:{c}"))
        for c in counters
    ]
    decreases = [
        (_use_row(t), f"nondet:{t}", _rank_row(m, m.transition(t)))
        for t in tids
        if m.kind(m.transition(t).source) == NONDET
    ] + [
        (_use_row(m.out(s)[0].tid), f"prob:{s}", _expected_rank_row(m, s))
        for s in states
        if m.kind(s) == PROB
    ]
    for use, label, row in decreases:
        constraints.append(con(row, "<=", 0, label=label))
        pairs.append((use, con({k: -v for k, v in row.items()}, ">=", 0, label=label)))
    return _flow_system(m, mec), LpProblem(variables, tuple(constraints)), pairs


def _probe(problem: LpProblem, row: LinearConstraint) -> Optional[dict[str, Fraction]]:
    """A solution of the system with `row` at least 1, or None."""
    sol = solve_feasibility(
        LpProblem(problem.variables, problem.constraints + (row.with_rhs(1),))
    )
    return None if sol is None else sol.assignment


def _strict(rows: Sequence[LinearConstraint], x: dict[str, Fraction]) -> set[int]:
    return {k for k, row in enumerate(rows) if row.value(x) > 0}


def _sum_witnesses(
    problem: LpProblem,
    rows: Sequence[LinearConstraint],
    witnesses: list[dict[str, Fraction]],
    strict: set[int],
) -> dict[str, Fraction]:
    """The sum of homogeneous solutions, re-checked and scaled to integers: it
    solves the system, leaves no row of `rows` negative, and is strict on
    exactly `strict`, the rows some summand is strict on."""
    total = {v: sum((w[v] for w in witnesses), Fraction(0)) for v in problem.variables}
    for c in problem.constraints:
        if not c.holds(total):
            raise InternalError("sum of homogeneous witnesses left the system")
    if any(row.value(total) < 0 for row in rows):
        raise InternalError("sum of homogeneous witnesses has a negative pair row")
    if _strict(rows, total) != strict:
        raise InternalError("sum is not strict on exactly its summands' rows")
    return scale_to_integers(LpSolution(total)).assignment


def _pair_step(
    p1: LpProblem, p2: LpProblem, pair: Pair, mid: str, flow_first: bool
) -> tuple[bool, dict[str, Fraction]]:
    """Decide one complementary pair: (True, a System (II) solution with its
    row at >= 1), else (False, a System (I) solution with its own row at
    >= 1). System (I) is probed first if `flow_first`, else System (II); the
    second probe runs only where the first is infeasible, and one of the two
    must be feasible. The order changes which infeasible probe is paid for,
    never the answer: only one side of a pair can be made strict."""
    row1, row2 = pair
    probes = [(False, p1, row1), (True, p2, row2)]
    for ranked, problem, row in probes if flow_first else probes[::-1]:
        w = _probe(problem, row)
        if w is not None:
            return ranked, w
    raise InternalError(
        f"dichotomy violated in {mid}: neither {row1.label} of the flow "
        f"system nor {row2.label} of the ranking system can be made strict"
    )


def _flow_first(m: VassMdp) -> bool:
    """Probe order of a class solve: the flow first with one counter, where
    most pairs land on the flow side; the ranking first otherwise."""
    return m.dimension == 1


def counter_pair(m: VassMdp, mec: Mec) -> tuple[bool, dict[str, Fraction]]:
    """The class's first complementary pair (counter 1) decided alone, by the
    class solve's own first step: (False, a flow whose effect on counter 1 is
    >= 1; the class pumps it), or (True, a ranking with y(1) >= 1). With one
    counter the flow is probed first, so an increasing class costs one LP and
    any other class two; with more counters the ranking is probed first.
    `compute_maximal_solutions` can start from the ranking."""
    p1, p2, pairs = build_systems(m, mec)
    return _pair_step(p1, p2, pairs[0], mec.mid, _flow_first(m))


def compute_maximal_solutions(
    m: VassMdp, mec: Mec, counter_ranking: Optional[dict[str, Fraction]] = None
) -> tuple[SystemIWitness, RankingFunction]:
    """Integer-scaled maximal solutions of systems (I) and (II) for one class.

    Maximal: strict on one side of every complementary pair (`build_systems`),
    the achievable one. The pairs are walked in order; a pair that an earlier
    witness of either system is already strict on is skipped, otherwise
    one system is probed with its row at >= 1 and, if that is infeasible,
    the other with its own, which must then be feasible (`_pair_step`:
    System (I) first with one counter, System (II) first otherwise; the
    witnesses do not depend on the order). Each system's
    witnesses are summed (homogeneous systems are closed under addition, and
    every pair row is nonnegative on their solutions), so each sum is strict
    on one side of every pair. After scaling, every nonzero entry is >= 1;
    the witness sets are read off the sums by substitution.

    `counter_ranking`, the ranking `counter_pair` found for this class, is
    taken as the first pair's witness, so that pair is not probed again.
    """
    p1, p2, pairs = build_systems(m, mec)
    rows1, rows2 = [r for r, _ in pairs], [r for _, r in pairs]
    flows: list[dict[str, Fraction]] = []
    rankings: list[dict[str, Fraction]] = []
    strict1: set[int] = set()
    strict2: set[int] = set()
    if counter_ranking is not None:
        rankings.append(counter_ranking)
        strict2 |= _strict(rows2, counter_ranking)
    flow_first = _flow_first(m)
    for k, pair in enumerate(pairs):
        if k in strict1 or k in strict2:
            continue
        ranked, w = _pair_step(p1, p2, pair, mec.mid, flow_first)
        if ranked:
            rankings.append(w)
            strict2 |= _strict(rows2, w)
        else:
            flows.append(w)
            strict1 |= _strict(rows1, w)
    x = _sum_witnesses(p1, rows1, flows, strict1)
    y = _sum_witnesses(p2, rows2, rankings, strict2)
    for row1, row2 in pairs:
        if (row1.value(x) > 0) == (row2.value(y) > 0):
            raise InternalError(
                f"pair {row1.label} / {row2.label} in {mec.mid} "
                "is not strict on exactly one side"
            )

    def decreases(row: dict[str, Fraction]) -> bool:
        return sum((v * y[k] for k, v in row.items()), Fraction(0)) < 0

    tids = sorted(mec.transitions)
    counters = range(1, m.dimension + 1)
    witness = SystemIWitness(
        mec_id=mec.mid,
        x={t: x[_xvar(t)] for t in tids},
        positive_counters=frozenset(c for c, row in zip(counters, rows1) if row.value(x) > 0),
        positive_transitions=frozenset(t for t in tids if x[_xvar(t)] > 0),
    )
    controlled = [m.transition(t) for t in tids if m.kind(m.transition(t).source) == NONDET]
    ranking = RankingFunction(
        mec_id=mec.mid,
        y={c: y[_yvar(c)] for c in counters},
        z={s: y[_zvar(s)] for s in sorted(mec.states)},
        strict_nondet=frozenset(t.tid for t in controlled if decreases(_rank_row(m, t))),
        strict_prob=frozenset(
            s for s in mec.states if m.kind(s) == PROB and decreases(_expected_rank_row(m, s))
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


# a type's pipeline: one step per class, in type order
Pipeline = tuple[DagPipelineStep, ...]
# class solves by (class, sorted zeroed counters), as a report lists them
Solves = Mapping[tuple[str, tuple[int, ...]], tuple[SystemIWitness, RankingFunction]]


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


def _fluctuation_limited(
    m: VassMdp, measure: Measure, unzeroed: SystemIWitness, zeroed: frozenset[int]
) -> bool:
    """The fluctuation hint of a measure first pumped in a class solved with
    the `zeroed` counters zeroed, read off the class's maximal flow with
    nothing zeroed (`unzeroed`): that flow pumps the measure, and a transition
    it uses moves a zeroed counter. Every flow of the unzeroed class leaves
    every counter's effect nonnegative, so some flow pumps the measure and
    moves a counter an earlier class pumped without spending any counter:
    the pump may be limited by fluctuations, not by budget, and growth may
    exceed degree 2."""
    return _pumps(measure, unzeroed, unzeroed.positive_counters) and any(
        m.transition(t).update[c - 1] for t in unzeroed.positive_transitions for c in zeroed
    )


def run_dag_pipeline(m: VassMdp, beta_mecs: Sequence[Mec]) -> Pipeline:
    """Walk the type, zeroing already-pumped counters before each class. The
    walk is the same for every measure."""
    pumped: frozenset[int] = frozenset()
    steps: list[DagPipelineStep] = []
    for mec in beta_mecs:
        zeroed_model = zero_counters(m, pumped) if pumped else m
        witness, ranking = compute_maximal_solutions(zeroed_model, mec)
        newly = _newly_pumped(m, ranking, pumped)
        steps.append(DagPipelineStep(mec.mid, newly, witness, ranking, pumped))
        pumped = pumped | newly
    return tuple(steps)


def classify_dag(
    m: VassMdp,
    beta_mecs: Sequence[Mec],
    measure: Measure,
    owner: Mapping[str, str],
    solves: Solves,
) -> tuple[Estimate, Optional[Pipeline]]:
    """Asymptotic estimate of one measure conditioned on one type, for any
    dimension, and the type's pipeline it was read off (None where a
    use-count rule of every regime decides the label,
    `use_count_outside_type`). The caller passes a realizable type of a
    DAG-like model as its classes, a measure valid for the model, `owner`,
    the class of every class transition, and `solves`, the class solves
    made so far by (class, zeroed counters); none of these is checked here.

    Every measure reads the same pipeline, at its first step that pumps the
    measure (`_pumps`). There the label is `LowerQuadratic`; where counters
    were zeroed before that step, the class's solve with nothing zeroed,
    its `solves` entry, decides the fluctuation hint
    (`_fluctuation_limited`), and a missing entry is an `InternalError`.
    Without such a step, counters and the termination time are
    `TightLinear` (a positive rank coefficient, or a strict rank row on
    every class transition), and a use count is `UpperLinear`: a strict
    rank row caps it linearly but promises no uses.
    """
    beta = tuple(mec.mid for mec in beta_mecs)
    outside = use_count_outside_type(measure, beta, owner)
    if outside is not None:
        return outside, None
    pipeline = run_dag_pipeline(m, beta_mecs)
    at = next(
        (k for k, s in enumerate(pipeline) if _pumps(measure, s.witness, s.newly_pumped)), None
    )
    if at is None:
        if isinstance(measure, TransitionCount):
            note = (
                "no zeroed flow uses the transition, so a strict rank row caps its use count "
                "linearly; no lower bound is claimed — the count may be zero"
            )
            return Estimate(Label.UPPER_LINEAR, "rank-coefficient-positive", True, note=note), pipeline
        return Estimate(Label.TIGHT_LINEAR, "rank-coefficient-positive", True), pipeline
    step, hint = pipeline[at], False
    if step.zeroed:
        unzeroed = solves.get((step.mec_id, ()))
        if unzeroed is None:
            raise InternalError(f"no solve of class {step.mec_id} with nothing zeroed")
        hint = _fluctuation_limited(m, measure, unzeroed[0], step.zeroed)
    return Estimate(
        label=Label.LOWER_QUADRATIC,
        tag="flow-pumping-quadratic-lower",
        exact=True,
        beyond_quadratic_hint=hint,
        note=f"pumped in class {step.mec_id} along type {','.join(beta)}"
        + ("; fluctuation-limited pump, growth may exceed degree 2" if hint else ""),
    ), pipeline
