"""Independent ground-truth helpers shared by unit and acceptance tests."""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from vass_asym.dichotomy import (
    Label,
    _use_row,
    _xvar,
    build_systems,
    classify_dag,
    compute_maximal_solutions,
)
from vass_asym import check, cli, dichotomy, sim
from vass_asym.graph import mec_decomposition, state_to_mec, transition_to_mec
from vass_asym.model import (
    Counter,
    InternalError,
    Termination,
    Transition,
    TransitionCount,
    UnknownTransition,
    ValidationError,
    VassMdp,
    apply_md_strategy,
    zero_counters,
)
from vass_asym.onedim import (
    BsccClass,
    ClassInventory,
    EnergyAnswer,
    MecFlags,
    TooManyStrategies,
    bottom_sccs,
    bounded_zero_witness,
    brute_force_classify,
    bscc_analysis,
    chain_bscc_transitions,
    compute_inventory,
)
from vass_asym.ratlp import LinearConstraint, LpProblem, Relation, con, solve_feasibility


@dataclass(frozen=True)
class Configuration:
    state: str
    counters: tuple

    @property
    def terminal(self) -> bool:
        return any(c < 0 for c in self.counters)


def initial_configuration(m, state, n) -> Configuration:
    """The analysis convention: every counter starts at the same value n."""
    if state not in m.state_names():
        raise ValidationError(f"unknown initial state {state!r}")
    return Configuration(state, (n,) * m.dimension)


def classify_bscc(m, strategy, bscc_states) -> BsccClass:
    """Behaviour class of one bottom component of a strategy chain."""
    return bscc_analysis(m, strategy, bscc_states).cls


def classify(m, beta, measure):
    """`classify_dag` on a type given by class ids: the classes and the
    transition owners derived here, as `cli.build_analysis` derives them,
    and each class of the type solved with nothing zeroed, as the one-class
    types list them. Returns the estimate and the pipeline it was read off
    (or None)."""
    mecs = mec_decomposition(m)
    by_id = {mec.mid: mec for mec in mecs}
    solves = {(b, ()): compute_maximal_solutions(m, by_id[b]) for b in beta}
    return classify_dag(m, [by_id[b] for b in beta], measure, transition_to_mec(mecs), solves)


def reference_fluctuation_hint(m, mec, measure, zeroed) -> bool:
    """The fluctuation hint by its definition: for some transition of the
    class that moves a `zeroed` counter, the class's flow system on the
    model with nothing zeroed has a solution with the measure's row and that
    transition's flow both at least 1. One LP per such transition."""
    flows, _, _ = build_systems(m, mec)
    tids = sorted(mec.transitions)
    if isinstance(measure, Counter):
        coeffs = {_xvar(t): m.transition(t).update[measure.index - 1] for t in tids}
    elif isinstance(measure, Termination):
        coeffs = {_xvar(t): 1 for t in tids}
    else:
        coeffs = {_xvar(measure.tid): 1}
    measure_row = con(coeffs, ">=", 1, label="measure")
    for t in tids:
        if any(m.transition(t).update[c - 1] for c in zeroed):
            rows = (measure_row, _use_row(t).with_rhs(1))
            if solve_feasibility(LpProblem(flows.variables, flows.constraints + rows)) is not None:
                return True
    return False


def reference_classify_dag(m, beta_mecs, measure, owner):
    """`classify_dag` as one walk that tracks the measure: the first class
    that pumps it, after some counter was zeroed, decides the fluctuation
    hint in the middle of the walk (`reference_fluctuation_hint`), and the
    label is read off the finished walk. Returns (label, tag, exact, bound,
    hint)."""
    beta = tuple(mec.mid for mec in beta_mecs)
    if isinstance(measure, TransitionCount) and measure.tid not in owner:
        return Label.UPPER_TYPE_LENGTH, "transient-transition-geometric-tail", True, len(beta), False
    if isinstance(measure, TransitionCount) and owner[measure.tid] not in beta:
        return Label.TIGHT_ZERO, "class-not-in-type", True, None, False
    pumped, tracking, promoted, hint = frozenset(), True, False, False
    for mec in beta_mecs:
        zeroed_model = zero_counters(m, pumped) if pumped else m
        witness, ranking = compute_maximal_solutions(zeroed_model, mec)
        newly = dichotomy._newly_pumped(m, ranking, pumped)
        if tracking and dichotomy._pumps(measure, witness, newly):
            tracking, promoted = False, True
            if pumped:
                hint = reference_fluctuation_hint(m, mec, measure, pumped)
        pumped = pumped | newly
    if promoted:
        return Label.LOWER_QUADRATIC, "flow-pumping-quadratic-lower", True, None, hint
    if isinstance(measure, TransitionCount):
        return Label.UPPER_LINEAR, "rank-coefficient-positive", True, None, False
    return Label.TIGHT_LINEAR, "rank-coefficient-positive", True, None, False


def expected_update(m, strategy, state) -> tuple:
    """Exact expected counter change of one step from `state` under the
    branch distribution the simulator resolves there."""
    rec = sim._Resolved(m, strategy).resolve(state)
    return tuple(
        sum((p * upd[k] for p, upd in zip(rec.probs, rec.updates)), Fraction(0))
        for k in range(m.dimension)
    )


def augment_step_counter(m, only=None) -> VassMdp:
    """Append counter d+1 counting transition uses.

    With ``only=None`` every transition adds 1 to the new counter (its peak is
    the termination time up to an off-by-one); with ``only=t`` just that
    transition does (its peak is t's use count). The new counter is never
    decremented, so it cannot cause termination. Classifying counter d+1 of
    the augmented model is the reference encoding of the measures L and T:t.
    """
    if only is not None and not m.has_transition(only):
        raise UnknownTransition(only)
    transitions = [
        Transition(
            t.tid,
            t.source,
            t.update + ((1 if only is None or t.tid == only else 0),),
            t.target,
            t.prob,
        )
        for t in m.transitions
    ]
    return VassMdp(m.dimension + 1, m.states, transitions)


def force_probe_order(monkeypatch, flow_first):
    """Make every pair step of a class solve probe System (I) first
    (`flow_first`) or System (II) first, whatever the class's dimension.
    Ranking first for every dimension is the reference order of the
    differential tests of the probe order."""
    step = dichotomy._pair_step

    def forced(p1, p2, pair, mid, _flow_first):
        return step(p1, p2, pair, mid, flow_first)

    monkeypatch.setattr(dichotomy, "_pair_step", forced)


class NonHomogeneousSystem(ValueError):
    """Strict-count maximization requires every right-hand side to be zero."""


def maximize_strict_count(
    problem: LpProblem, candidates: tuple[LinearConstraint, ...]
) -> tuple[dict[str, Fraction], frozenset[int]]:
    """Reference strict-count maximization: one solution of the homogeneous
    base system making as many candidate rows simultaneously strict as
    possible, and the indices of the candidates it makes strict.

    Each candidate is probed independently at ``>= 1``; the witnesses are
    summed. Additive closure of the homogeneous system keeps the sum feasible,
    and the sum achieves exactly the individually-achievable candidates: were
    it strict on another candidate, it would itself be a probe witness for it.
    """
    for c in problem.constraints:
        if c.rhs != 0:
            raise NonHomogeneousSystem(
                f"base constraint {c.label or c.coeffs} has rhs {c.rhs} != 0"
            )
    for c in candidates:
        if c.relation is not Relation.GEQ or c.rhs != 0:
            raise ValueError("candidates must be homogeneous '>= 0' rows")

    achieved: list[int] = []
    witnesses: list[dict[str, Fraction]] = []
    for idx, cand in enumerate(candidates):
        probe = LpProblem(
            problem.variables, problem.constraints + (cand.with_rhs(1),)
        )
        sol = solve_feasibility(probe)
        if sol is not None:
            achieved.append(idx)
            witnesses.append(sol.assignment)

    total = {v: Fraction(0) for v in problem.variables}
    for w in witnesses:
        for v in problem.variables:
            total[v] += w[v]

    for c in problem.constraints:
        if not c.holds(total):
            raise InternalError("sum of homogeneous witnesses left the system")
    for idx in achieved:
        if candidates[idx].value(total) < 1:
            raise InternalError("sum lost a candidate a probe achieved")
    for idx, cand in enumerate(candidates):
        if idx not in achieved and cand.value(total) != 0 and cand.with_rhs(1).holds(total):
            raise InternalError("sum achieved a candidate no probe achieved")
    return total, frozenset(achieved)


def candidate_rows(m, mec) -> tuple[tuple, tuple]:
    """Every row of systems (I) and (II) the dichotomy can make strict: each
    counter's total effect and every transition's flow; the System II row of
    each complementary pair."""
    _, _, pairs = build_systems(m, mec)
    counters = tuple(r for r, _ in pairs[: m.dimension])
    flows = tuple(_use_row(t) for t in sorted(mec.transitions))
    return counters + flows, tuple(r for _, r in pairs)


def reference_strict_labels(m, mec) -> tuple[set, set]:
    """Candidate labels of systems (I) and (II) that the per-candidate
    reference makes strict."""
    p1, p2, _ = build_systems(m, mec)
    out = []
    for problem, candidates in zip((p1, p2), candidate_rows(m, mec)):
        _, achieved = maximize_strict_count(problem, candidates)
        out.append({candidates[i].label for i in achieved})
    return out[0], out[1]


def strict_labels(m, witness, ranking) -> tuple[set, set]:
    """The same candidate labels, read off a flow and ranking pair."""
    flow = {f"counter:{c}" for c in witness.positive_counters} | {
        f"transition:{t}" for t in witness.positive_transitions
    }
    rank = (
        {f"counter:{c}" for c, v in ranking.y.items() if v > 0}
        | {f"nondet:{t}" for t in ranking.strict_nondet}
        | {f"prob:{s}" for s in ranking.strict_prob}
    )
    return flow, rank


def counter_effect(m, x, c) -> Fraction:
    """Total effect of the flow `x` on counter c."""
    return sum((v * m.transition(t).update[c - 1] for t, v in x.items()), Fraction(0))


def solve_failures(m, mec, witness, ranking, zeroed=frozenset()) -> list:
    """What the report checker finds wrong with one in-memory class solve,
    serialized as a report carries it: `kind: message` lines, empty when the
    flow and the ranking are valid and maximal."""
    failures = check.solve_failures(
        m, cli._ser_class(mec), cli._ser_flow(witness), cli._ser_ranking(ranking), zeroed
    )
    return [f"{kind}: {e}" for kind, errors in failures.items() for e in errors]


def classify_counters_mec(m, mec) -> dict:
    """Within one class: TightLinear iff the maximal ranking has y(c) > 0,
    else LowerQuadratic (the dichotomy provides the pumping flow)."""
    witness, ranking = compute_maximal_solutions(m, mec)
    out = {}
    for c in range(1, m.dimension + 1):
        if ranking.y[c] > 0:
            out[c] = Label.TIGHT_LINEAR
        else:
            assert counter_effect(m, witness.x, c) > 0, (
                f"dichotomy violated for counter {c} in {mec.mid}"
            )
            out[c] = Label.LOWER_QUADRATIC
    return out


def _has_negative_cycle(edges, nodes) -> bool:
    """Bellman-Ford from a virtual source joined to every node at cost 0."""
    dist = dict.fromkeys(nodes, 0)
    for _ in range(len(dist) - 1):
        for e in edges:
            dist[e.target] = min(dist[e.target], dist[e.source] + e.update[0])
    return any(dist[e.source] + e.update[0] < dist[e.target] for e in edges)


def pivot_safe_bruteforce(m, pivot, bound=10**6) -> bool:
    """Does some strategy own a non-losing bottom component containing `pivot`?

    Decided by strategy enumeration (TooManyStrategies beyond `bound`). This
    is the question the Hamiltonicity gadget reduces to.
    """
    if m.dimension != 1:
        raise ValueError("energy safety is defined for one-counter models")
    if pivot not in m.state_names():
        raise ValueError(f"unknown state {pivot!r}")
    controlled = [s.name for s in m.nondet_states()]
    menus = [[t.tid for t in m.out(name)] for name in controlled]
    total = math.prod(len(menu) for menu in menus)
    if total > bound:
        raise TooManyStrategies(
            f"{total} memoryless strategies exceed the enumeration bound {bound}"
        )
    for combo in itertools.product(*menus):
        chain = apply_md_strategy(m, dict(zip(controlled, combo)))
        for b in bottom_sccs(chain):
            edges = [t for name in b for t in chain.out(name)]
            if pivot in b and not _has_negative_cycle(edges, b):
                return True
    return False


def energy_by_inventory(m, brute_bound=10**6) -> EnergyAnswer:
    """Reference energy decision: every class solved in full first, then the
    zero-cycle witness without an increasing class, else strategy
    enumeration in `energy_safe`'s order."""
    if m.dimension != 1:
        raise ValueError("energy safety is defined for one-counter models")
    if brute_bound < 0:
        raise ValueError(f"the enumeration bound must be >= 0, got {brute_bound}")
    inventory = compute_inventory(m)
    if not inventory.any_increasing:
        w = bounded_zero_witness(m, inventory)
        if w is not None:
            return EnergyAnswer(
                status="Safe",
                strategy=w.strategy,
                bscc_states=w.component_states,
                note="zero-cycle bottom component: every cycle keeps the counter unchanged",
            )
        return EnergyAnswer(
            status="Unsafe",
            note="no class admits positive drift or zero cycles: every bottom "
            "component drifts down or oscillates unboundedly",
        )
    controlled = [s.name for s in m.nondet_states()]
    menus = [[t.tid for t in m.out(name)] for name in controlled]
    total = math.prod(len(menu) for menu in menus)
    if total > brute_bound:
        return EnergyAnswer(
            status="UnknownNPRegime",
            note=f"{total} strategies exceed the enumeration bound {brute_bound}",
        )
    for combo in itertools.product(*menus):
        choice = dict(zip(controlled, combo))
        chain = apply_md_strategy(m, choice)
        for b in bottom_sccs(chain):
            edges = [t for name in b for t in chain.out(name)]
            if not _has_negative_cycle(edges, b):
                return EnergyAnswer(
                    status="Safe",
                    strategy=choice,
                    bscc_states=b,
                    note="bottom component with no negative cycle",
                )
    return EnergyAnswer(
        status="Unsafe",
        note="every bottom component of every strategy contains a negative cycle",
    )


def flags_tuple(f):
    """The decision-relevant part of MecFlags (witness payloads stripped)."""
    return (
        f.increasing,
        f.bounded_zero,
        f.unbounded_zero,
        f.bz_transitions,
        f.uz_transitions,
    )


def inventory_from_bruteforce(m, mecs, brute=None) -> ClassInventory:
    """Behaviour inventory recomputed purely from strategy enumeration."""
    if brute is None:
        brute = brute_force_classify(m)
    owner = state_to_mec(mecs)
    agg = {
        mec.mid: {"inc": False, "bz": False, "uz": False, "bzt": set(), "uzt": set()}
        for mec in mecs
    }
    for (key, b), cls in brute.items():
        mids = {owner.get(s) for s in b}
        assert len(mids) == 1 and None not in mids, (
            "a bottom component must lie inside exactly one class"
        )
        a = agg[mids.pop()]
        tids = chain_bscc_transitions(m, dict(key), b)
        if cls is BsccClass.INCREASING:
            a["inc"] = True
        elif cls is BsccClass.BOUNDED_ZERO:
            a["bz"] = True
            a["bzt"] |= tids
        elif cls is BsccClass.UNBOUNDED_ZERO:
            a["uz"] = True
            a["uzt"] |= tids
    flags = {}
    for mec in mecs:
        a = agg[mec.mid]
        if a["inc"]:
            flags[mec.mid] = MecFlags(
                mec.mid, True, None, None, frozenset(), frozenset()
            )
        else:
            flags[mec.mid] = MecFlags(
                mec.mid,
                False,
                a["bz"],
                a["uz"],
                frozenset(a["bzt"]),
                frozenset(a["uzt"]) - frozenset(a["bzt"]),
            )
    return ClassInventory(flags=flags)


def is_hamiltonian(vertices, edges) -> bool:
    """Exhaustive Hamiltonian-cycle check on an undirected simple graph.

    Convention: a Hamiltonian cycle needs at least three distinct vertices.
    """
    vs = sorted(vertices)
    n = len(vs)
    if n < 3:
        return False
    adj = {v: set() for v in vs}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    first = vs[0]
    for perm in itertools.permutations(vs[1:]):
        cycle = (first, *perm)
        if all(cycle[(i + 1) % n] in adj[cycle[i]] for i in range(n)):
            return True
    return False
