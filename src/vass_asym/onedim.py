"""One-counter models: behaviour inventory, growth case table, and oracles.

A memoryless deterministic strategy turns the model into a finite chain whose
bottom components each treat the single counter in one of four ways: drift up
(Increasing), drift down (Decreasing), zero drift with every cycle summing to
zero (BoundedZero), or zero drift with some nonzero cycle (UnboundedZero).

`compute_inventory` decides, per class, whether each behaviour is achievable
by some strategy, from one pair of maximal System I/II solutions per class,
and keeps the exact rational witnesses. It is the only place that solves a
whole class: `bounded_zero_witness` reads the inventory the caller holds.
`labels_from_inventory` is the pure case table turning a class-visit
sequence plus those flags into growth estimates, each rule stated once (the
use-count rules of every dimension are `dichotomy.use_count_outside_type`);
the analysis entry point (`cli.build_analysis`) derives the classes, types
and transition owners and asks it for each label. `brute_force_classify`
enumerates every strategy as an independent ground truth. `energy_safe`
answers whether some recurrent behaviour never loses counter value along any
cycle: it decides each class's counter pair first (`counter_pair`) and builds
the inventory only when no class increases, since one increasing class sends
the question to strategy enumeration. `hamiltonian_reduction` encodes
undirected-graph Hamiltonicity into exactly that question.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import prod
from typing import Iterator, Mapping, Optional, Sequence

from .dichotomy import (
    Estimate,
    Label,
    RankingFunction,
    SystemIWitness,
    compute_maximal_solutions,
    counter_pair,
    rank_delta,
    use_count_outside_type,
)
from .graph import Mec, _sccs, mec_decomposition
from .model import (
    NONDET,
    PROB,
    Counter,
    InternalError,
    Measure,
    State,
    Termination,
    Transition,
    TransitionCount,
    VassMdp,
    apply_md_strategy,
)
from .ratlp import solve_linear_system


class NotABottomScc(ValueError):
    """The given state set is not a bottom component of the strategy chain."""


class TooManyStrategies(RuntimeError):
    """Strategy enumeration would exceed the requested bound."""


class VertexNotInGraph(KeyError):
    """The distinguished vertex is not a vertex of the input graph."""


class BsccClass(str, Enum):
    INCREASING = "Increasing"
    DECREASING = "Decreasing"
    BOUNDED_ZERO = "BoundedZero"
    UNBOUNDED_ZERO = "UnboundedZero"


# ---------------------------------------------------------------------------
# chain-level analysis (exact stationary distribution, drift, cycle structure)
# ---------------------------------------------------------------------------


def bottom_sccs(chain: VassMdp) -> list[frozenset[str]]:
    """Bottom strongly connected components of a chain (or any model's graph),
    ordered by least member state."""
    nodes = [s.name for s in chain.states]
    succ = {n: [t.target for t in chain.out(n)] for n in nodes}
    comp = _sccs(nodes, succ)
    leaves = set(comp.values())
    for n in nodes:
        for tgt in succ[n]:
            if comp[tgt] != comp[n]:
                leaves.discard(comp[n])
    groups: dict[int, set[str]] = {}
    for n in nodes:
        if comp[n] in leaves:
            groups.setdefault(comp[n], set()).add(n)
    return sorted((frozenset(g) for g in groups.values()), key=min)


@dataclass(frozen=True)
class BsccAnalysis:
    """Exact behaviour of one bottom component of a strategy chain."""

    states: frozenset[str]
    transitions: frozenset[str]
    cls: BsccClass
    stationary: dict[str, Fraction]
    drift: Fraction


def _bscc_edges(chain: VassMdp, states: frozenset[str]) -> list[Transition]:
    edges = []
    for name in sorted(states):
        for t in chain.out(name):
            if t.target not in states:
                raise InternalError("bottom component is not closed")
            edges.append(t)
    return edges


def _potential_defect(
    edges: Sequence[Transition],
) -> tuple[Optional[str], dict[str, Fraction]]:
    """Try to explain every edge's counter update as a potential difference.

    Returns (None, potentials) when all cycles through the edges sum to zero,
    else (tid of a violating edge, partial potentials). The edge set must be
    strongly connected so a directed traversal reaches every node.
    """
    nodes = sorted({e.source for e in edges} | {e.target for e in edges})
    adj: dict[str, list[Transition]] = {n: [] for n in nodes}
    for e in edges:
        adj[e.source].append(e)
    pot: dict[str, Fraction] = {nodes[0]: Fraction(0)}
    frontier = [nodes[0]]
    while frontier:
        s = frontier.pop()
        for e in adj[s]:
            if e.target not in pot:
                pot[e.target] = pot[s] + e.update[0]
                frontier.append(e.target)
    if len(pot) != len(nodes):
        raise InternalError("edge set is not strongly connected")
    for e in edges:
        if pot[e.target] != pot[e.source] + e.update[0]:
            return e.tid, pot
    return None, pot


def _analyze_bscc(chain: VassMdp, states: frozenset[str]) -> BsccAnalysis:
    edges = _bscc_edges(chain, states)
    names = sorted(states)
    idx = {n: i for i, n in enumerate(names)}

    # stationary distribution: replace one balance row with normalization
    matrix = [[Fraction(1)] * len(names)]
    rhs = [Fraction(1)]
    for s in names[1:]:
        row = [Fraction(0)] * len(names)
        row[idx[s]] += 1
        for e in edges:
            if e.target == s:
                row[idx[e.source]] -= e.prob
        matrix.append(row)
        rhs.append(Fraction(0))
    sol = solve_linear_system(matrix, rhs)
    if sol is None:
        raise InternalError("stationary system is singular on a bottom component")
    pi = {n: sol[idx[n]] for n in names}
    if not all(v > 0 for v in pi.values()):
        raise InternalError("stationary distribution not positive")
    for s in names:  # includes the balance row the solve replaced
        inflow = sum((pi[e.source] * e.prob for e in edges if e.target == s), Fraction(0))
        if inflow != pi[s]:
            raise InternalError("stationary balance failed re-substitution")

    drift = sum((pi[e.source] * e.prob * e.update[0] for e in edges), Fraction(0))
    if drift > 0:
        cls = BsccClass.INCREASING
    elif drift < 0:
        cls = BsccClass.DECREASING
    else:
        defect, _ = _potential_defect(edges)
        cls = BsccClass.BOUNDED_ZERO if defect is None else BsccClass.UNBOUNDED_ZERO
    return BsccAnalysis(
        states=states,
        transitions=frozenset(e.tid for e in edges),
        cls=cls,
        stationary=pi,
        drift=drift,
    )


def bscc_analysis(
    m: VassMdp, strategy: Mapping[str, str], bscc_states: Sequence[str] | frozenset[str]
) -> BsccAnalysis:
    """Exact stationary distribution, drift, and behaviour class of one bottom
    component of the chain induced by a memoryless deterministic strategy."""
    if m.dimension != 1:
        raise ValueError("behaviour classes are defined for one-counter models")
    chain = apply_md_strategy(m, dict(strategy))
    b = frozenset(bscc_states)
    if b not in bottom_sccs(chain):
        raise NotABottomScc(f"{sorted(b)} is not a bottom component of the strategy chain")
    return _analyze_bscc(chain, b)


# ---------------------------------------------------------------------------
# per-class behaviour inventory
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundedZeroWitness:
    """A zero-cycle end component: a strategy whose bottom component keeps the
    counter unchanged along every cycle."""

    mec_id: str
    component_states: frozenset[str]
    component_transitions: frozenset[str]
    strategy: dict[str, str]
    stationary: dict[str, Fraction]


@dataclass(frozen=True)
class MecFlags:
    """Achievable bottom-component behaviours of one class.

    `bounded_zero`/`unbounded_zero` are None for an increasing class: the
    zero-drift machinery is neither defined nor needed there, and the case
    table never reads them. `bz_transitions` are the transitions lying on some
    zero-cycle end component; `uz_transitions` those lying on some zero-drift
    oscillating component but on no zero-cycle one. Witness payloads are
    attached when the flags come from `compute_inventory` (the
    strategy-enumeration oracle builds flag-only inventories).
    """

    mec_id: str
    increasing: bool
    bounded_zero: Optional[bool]
    unbounded_zero: Optional[bool]
    bz_transitions: frozenset[str]
    uz_transitions: frozenset[str]
    flow: Optional[SystemIWitness] = None
    ranking: Optional[RankingFunction] = None
    kept_states: Optional[frozenset[str]] = None
    kept_transitions: Optional[frozenset[str]] = None
    uz_component: Optional[frozenset[str]] = None
    uz_defect_transition: Optional[str] = None


@dataclass(frozen=True)
class ClassInventory:
    """Behaviour flags for every class, keyed by class id."""

    flags: dict[str, MecFlags]

    @property
    def any_increasing(self) -> bool:
        return any(f.increasing for f in self.flags.values())

    @property
    def any_bounded_zero(self) -> bool:
        return any(f.bounded_zero is True for f in self.flags.values())

    @property
    def all_decreasing(self) -> bool:
        return all(
            not f.increasing and f.bounded_zero is False and f.unbounded_zero is False
            for f in self.flags.values()
        )


def _zero_delta_subsystem(
    m: VassMdp, mec: Mec, ranking: RankingFunction
) -> tuple[frozenset[str], frozenset[str]]:
    """Largest subsystem of the class in which the rank is preserved exactly:
    controlled transitions keep only zero rank delta; a probabilistic state
    survives only if every branch preserves the rank; states losing all
    choices cascade out. Returns (states, transitions), possibly empty."""
    delta = {tid: rank_delta(m, ranking, m.transition(tid)) for tid in mec.transitions}
    alive = set(mec.states)
    while True:
        dead = []
        for s in alive:
            if m.kind(s) == PROB:
                ok = all(
                    t.tid in mec.transitions and delta[t.tid] == 0 and t.target in alive
                    for t in m.out(s)
                )
            else:
                ok = any(
                    t.tid in mec.transitions and delta[t.tid] == 0 and t.target in alive
                    for t in m.out(s)
                )
            if not ok:
                dead.append(s)
        if not dead:
            break
        alive.difference_update(dead)
    kept = set()
    for s in alive:
        for t in m.out(s):
            if t.tid not in mec.transitions or t.target not in alive:
                continue
            if m.kind(s) == PROB or delta[t.tid] == 0:
                kept.add(t.tid)
    return frozenset(alive), frozenset(kept)


def _subsystem_model(
    m: VassMdp, states: frozenset[str], transitions: frozenset[str]
) -> VassMdp:
    return VassMdp(
        m.dimension,
        [m.state(n) for n in sorted(states)],
        [m.transition(t) for t in sorted(transitions)],
    )


def _support_components(
    m: VassMdp, witness: SystemIWitness
) -> list[frozenset[str]]:
    """Strongly connected components of the witness flow's support, as
    transition sets. Flow conservation keeps every support edge inside its
    component, so the grouping is well defined."""
    edges = [m.transition(tid) for tid in sorted(witness.positive_transitions)]
    if not edges:
        return []
    nodes = sorted({e.source for e in edges} | {e.target for e in edges})
    succ: dict[str, list[str]] = {n: [] for n in nodes}
    for e in edges:
        succ[e.source].append(e.target)
    comp = _sccs(nodes, succ)
    groups: dict[int, set[str]] = {}
    for e in edges:
        if comp[e.source] != comp[e.target]:
            raise InternalError("support edge crosses components")
        groups.setdefault(comp[e.source], set()).add(e.tid)
    return sorted((frozenset(g) for g in groups.values()), key=min)


def _nonincreasing_flags(
    m: VassMdp, mec: Mec, witness: SystemIWitness, ranking: RankingFunction
) -> MecFlags:
    if ranking.y[1] < 1:
        raise InternalError(
            "a class without positive counter effect must put positive weight on the counter"
        )
    kept_states, kept_transitions = _zero_delta_subsystem(m, mec, ranking)
    if kept_states:
        sub = _subsystem_model(m, kept_states, kept_transitions)
        bz_transitions = frozenset().union(
            *(sm.transitions for sm in mec_decomposition(sub))
        )
        bz = True
    else:
        bz_transitions = frozenset()
        bz = False

    uz_component: Optional[frozenset[str]] = None
    uz_defect: Optional[str] = None
    for comp in _support_components(m, witness):
        defect, _ = _potential_defect([m.transition(t) for t in sorted(comp)])
        if defect is not None:
            uz_component, uz_defect = comp, defect
            break
    uz = uz_component is not None
    uz_transitions = witness.positive_transitions - bz_transitions

    # internal cross-checks of the two routes to the flags (both exact)
    if not bz_transitions <= witness.positive_transitions:
        raise InternalError("zero-cycle component transitions must admit positive flow")
    if bool(uz_transitions) != uz:
        raise InternalError("oscillation flag must agree with the transition-level split")
    return MecFlags(
        mec_id=mec.mid,
        increasing=False,
        bounded_zero=bz,
        unbounded_zero=uz,
        bz_transitions=bz_transitions,
        uz_transitions=uz_transitions,
        flow=witness,
        ranking=ranking,
        kept_states=kept_states if kept_states else None,
        kept_transitions=kept_transitions if kept_states else None,
        uz_component=uz_component,
        uz_defect_transition=uz_defect,
    )


def compute_inventory(
    m: VassMdp,
    mecs: Optional[Sequence[Mec]] = None,
    counter_rankings: Optional[Mapping[str, dict[str, Fraction]]] = None,
) -> ClassInventory:
    """Behaviour flags for every class of a one-counter model.

    `counter_rankings` maps class ids to the rankings `counter_pair` found
    for them; each such class solve starts from its ranking."""
    if m.dimension != 1:
        raise ValueError("behaviour inventories are defined for one-counter models")
    if mecs is None:
        mecs = mec_decomposition(m)
    rankings = counter_rankings or {}
    flags: dict[str, MecFlags] = {}
    for mec in mecs:
        witness, ranking = compute_maximal_solutions(m, mec, rankings.get(mec.mid))
        if 1 in witness.positive_counters:
            flags[mec.mid] = MecFlags(
                mec_id=mec.mid,
                increasing=True,
                bounded_zero=None,
                unbounded_zero=None,
                bz_transitions=frozenset(),
                uz_transitions=frozenset(),
                flow=witness,
                ranking=ranking,
            )
        else:
            flags[mec.mid] = _nonincreasing_flags(m, mec, witness, ranking)
    return ClassInventory(flags=flags)


def bounded_zero_witness(
    m: VassMdp, inventory: ClassInventory
) -> Optional[BoundedZeroWitness]:
    """The first class (in class order) admitting a bottom component all of
    whose cycles keep the counter unchanged, with a strategy owning it and
    its exact stationary distribution; None if no class does. Built from the
    inventory's zero-cycle subsystem: no class is solved again."""
    flags = next((f for f in inventory.flags.values() if f.bounded_zero), None)
    if flags is None:
        return None
    if flags.kept_states is None or flags.kept_transitions is None:
        raise InternalError(f"class {flags.mec_id} has zero cycles but no kept subsystem")
    sub = _subsystem_model(m, flags.kept_states, flags.kept_transitions)
    comp = mec_decomposition(sub)[0]
    strategy: dict[str, str] = {}
    for s in m.nondet_states():
        if s.name in comp.states:
            strategy[s.name] = min(
                t.tid for t in sub.out(s.name) if t.tid in comp.transitions
            )
        else:
            strategy[s.name] = m.out(s.name)[0].tid
    # the component is closed under the strategy, but the least-id choices
    # need not keep it strongly connected: then the witness is the first
    # bottom component they realize inside it
    states = comp.states
    bottoms = bottom_sccs(apply_md_strategy(m, strategy))
    if states not in bottoms:
        states = next(b for b in bottoms if b <= comp.states)
    analysis = bscc_analysis(m, strategy, states)
    if analysis.cls != BsccClass.BOUNDED_ZERO:
        raise InternalError("zero-cycle component failed its own behaviour check")
    return BoundedZeroWitness(
        mec_id=flags.mec_id,
        component_states=states,
        component_transitions=analysis.transitions,
        strategy=strategy,
        stationary=analysis.stationary,
    )


# ---------------------------------------------------------------------------
# the growth case table
# ---------------------------------------------------------------------------


def _class_fact(label: Label, tag: str, beta: Sequence[str], witnesses: dict) -> Estimate:
    """A fact about one class of the type: exact on a one-class type, and
    extended, with a note, to a longer one."""
    single = len(beta) == 1
    note = None if single else "single-class statement applied to a longer sequence"
    return Estimate(label, tag, single, note=note, witnesses=witnesses)


def _oscillation(
    inventory: ClassInventory, tag: str, beta: Sequence[str], witnesses: dict
) -> Estimate:
    """Quadratic growth from an oscillating class: tight where no class of the
    whole model is increasing or keeps zero cycles, a lower bound otherwise."""
    if not inventory.any_increasing and not inventory.any_bounded_zero:
        return _class_fact(Label.TIGHT_QUADRATIC, tag, beta, witnesses)
    note = (
        "matching quadratic upper bound stated only when no class "
        "of the whole model is increasing or keeps zero cycles"
    )
    return Estimate(Label.LOWER_QUADRATIC, tag, False, note=note, witnesses=witnesses)


def _regime(label: Label, tag: str, holds: bool, note: str, witnesses: dict) -> Estimate:
    """A linear statement, exact where its whole-model regime `holds`;
    elsewhere `note` says what it assumed."""
    return Estimate(label, tag, holds, note=None if holds else note, witnesses=witnesses)


def labels_from_inventory(
    inventory: ClassInventory,
    measure: Measure,
    beta: Sequence[str],
    transition_owner: Mapping[str, str],
) -> Estimate:
    """Growth estimate of one measure along one class-visit sequence, read off
    the behaviour flags alone. Pure function: the analyzer and any oracle
    recomputation must agree bit for bit.

    `exact=True` marks the combinations backed verbatim by the classification
    theory; combinations extended beyond it (longer sequences, mixed regimes)
    keep the defensible bound and say in `note` what was extended.
    """
    for mid in beta:
        if mid not in inventory.flags:
            raise ValueError(f"unknown class id {mid!r} in type")
    if not beta:
        raise ValueError("type must contain at least one class")
    flags = [inventory.flags[mid] for mid in beta]

    if isinstance(measure, Counter):
        if measure.index != 1:
            raise ValueError("one-counter case table: counter index must be 1")
        inc = [f.mec_id for f in flags if f.increasing]
        if inc:
            return _class_fact(Label.UNBOUNDED, "increasing-class-pumping", beta, {"class": inc[0]})
        note = "linear statement assumes no class of the whole model is increasing"
        return _regime(
            Label.TIGHT_LINEAR, "no-increasing-class-linear", not inventory.any_increasing, note, {}
        )

    if isinstance(measure, Termination):
        heavy = [f.mec_id for f in flags if f.increasing or f.bounded_zero]
        if heavy:
            tag = "increasing-or-zero-cycle-class"
            return _class_fact(Label.UNBOUNDED, tag, beta, {"class": heavy[0]})
        osc = [f.mec_id for f in flags if f.unbounded_zero]
        if osc:
            return _oscillation(inventory, "zero-oscillation-quadratic", beta, {"class": osc[0]})
        note = "linear statement assumes every class of the whole model is decreasing"
        return _regime(Label.TIGHT_LINEAR, "all-classes-decreasing", inventory.all_decreasing, note, {})

    if not isinstance(measure, TransitionCount):
        raise TypeError(f"not a measure: {measure!r}")
    outside = use_count_outside_type(measure, beta, transition_owner)
    if outside is not None:
        return outside
    tid = measure.tid
    owner = transition_owner[tid]
    at = {"transition": tid, "class": owner}
    last_visit = max(i for i, mid in enumerate(beta) if mid == owner)
    if any(f.increasing for f in flags[: last_visit + 1]):
        return Estimate(Label.UNBOUNDED, "pumping-before-or-at-class", True, witnesses=at)
    owner_flags = inventory.flags[owner]
    if tid in owner_flags.bz_transitions:
        return _class_fact(Label.UNBOUNDED, "zero-cycle-component-transition", beta, at)
    if tid in owner_flags.uz_transitions:
        return _oscillation(inventory, "zero-oscillation-transition", beta, at)
    note = "linear upper bound; no tight claim outside the all-decreasing regime"
    tag = "strict-rank-decrease-transition"
    return _regime(Label.UPPER_LINEAR, tag, inventory.all_decreasing, note, at)


# ---------------------------------------------------------------------------
# strategy-enumeration oracle
# ---------------------------------------------------------------------------

StrategyKey = tuple[tuple[str, str], ...]


def _strategy_space(m: VassMdp) -> tuple[list[str], list[tuple[str, ...]], int]:
    controlled = [s.name for s in m.nondet_states()]
    menus = [tuple(t.tid for t in m.out(n)) for n in controlled]
    return controlled, menus, prod(len(menu) for menu in menus)


def _iter_strategies(m: VassMdp) -> Iterator[dict[str, str]]:
    controlled, menus, _ = _strategy_space(m)
    for combo in itertools.product(*menus):
        yield dict(zip(controlled, combo))


def brute_force_classify(
    m: VassMdp, bound: int = 10**6
) -> dict[tuple[StrategyKey, frozenset[str]], BsccClass]:
    """Ground truth by exhaustion: the behaviour class of every bottom
    component of every memoryless deterministic strategy."""
    if m.dimension != 1:
        raise ValueError("behaviour classes are defined for one-counter models")
    _, _, total = _strategy_space(m)
    if total > bound:
        raise TooManyStrategies(
            f"{total} memoryless strategies exceed the enumeration bound {bound}"
        )
    out: dict[tuple[StrategyKey, frozenset[str]], BsccClass] = {}
    for choice in _iter_strategies(m):
        chain = apply_md_strategy(m, choice)
        key = tuple(sorted(choice.items()))
        for b in bottom_sccs(chain):
            out[(key, b)] = _analyze_bscc(chain, b).cls
    return out


def chain_bscc_transitions(
    m: VassMdp, strategy: Mapping[str, str], states: frozenset[str]
) -> frozenset[str]:
    """Transition ids used inside one bottom component of a strategy chain."""
    chain = apply_md_strategy(m, dict(strategy))
    return frozenset(e.tid for e in _bscc_edges(chain, frozenset(states)))


# ---------------------------------------------------------------------------
# energy safety
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnergyAnswer:
    """Answer to: does some strategy own a bottom component in which no cycle
    loses counter value (so a finite initial credit suffices forever)?"""

    status: str  # "Safe" | "Unsafe" | "UnknownNPRegime"
    strategy: Optional[dict[str, str]] = None
    bscc_states: Optional[frozenset[str]] = None
    note: Optional[str] = None


def _has_negative_cycle(edges: Sequence[Transition], nodes: Sequence[str]) -> bool:
    dist = {n: 0 for n in nodes}
    for i in range(len(nodes)):
        changed = False
        for e in edges:
            w = e.update[0]
            if dist[e.source] + w < dist[e.target]:
                dist[e.target] = dist[e.source] + w
                changed = True
        if not changed:
            return False
    return True


def energy_safe(m: VassMdp, brute_bound: int = 10**6) -> EnergyAnswer:
    """Decide existence of a non-losing bottom component.

    Each class's counter pair is decided first, in class order
    (`counter_pair`: the pumping flow is probed first, so one LP where the
    class pumps the counter, two where a ranking bounds it). With an
    increasing class the question is genuinely hard and is answered by
    strategy enumeration up to `brute_bound`, else UnknownNPRegime; no
    further class is solved. Without one it collapses to the zero-cycle flag
    (a non-losing component has drift <= 0 and cycles >= 0, hence all cycles
    exactly zero), answered in polynomial time with a witness from the
    inventory, whose class solves start from the rankings already found.
    """
    if m.dimension != 1:
        raise ValueError("energy safety is defined for one-counter models")
    if brute_bound < 0:
        raise ValueError(f"the enumeration bound must be >= 0, got {brute_bound}")
    mecs = mec_decomposition(m)
    rankings: dict[str, dict[str, Fraction]] = {}
    for mec in mecs:
        ranked, solution = counter_pair(m, mec)
        if not ranked:
            return _energy_by_enumeration(m, brute_bound)
        rankings[mec.mid] = solution
    inventory = compute_inventory(m, mecs, rankings)
    if inventory.any_increasing:
        raise InternalError("the inventory found an increasing class its counter pairs did not")
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


def _energy_by_enumeration(m: VassMdp, brute_bound: int) -> EnergyAnswer:
    """Energy safety by enumerating every memoryless deterministic strategy,
    or UnknownNPRegime where there are more than `brute_bound`."""
    _, _, total = _strategy_space(m)
    if total > brute_bound:
        return EnergyAnswer(
            status="UnknownNPRegime",
            note=f"{total} strategies exceed the enumeration bound {brute_bound}",
        )
    for choice in _iter_strategies(m):
        chain = apply_md_strategy(m, choice)
        for b in bottom_sccs(chain):
            edges = _bscc_edges(chain, b)
            if not _has_negative_cycle(edges, sorted(b)):
                return EnergyAnswer(
                    status="Safe",
                    strategy=dict(choice),
                    bscc_states=b,
                    note="bottom component with no negative cycle",
                )
    return EnergyAnswer(
        status="Unsafe",
        note="every bottom component of every strategy contains a negative cycle",
    )


# ---------------------------------------------------------------------------
# Hamiltonicity gadget
# ---------------------------------------------------------------------------


def hamiltonian_reduction(graph: Mapping, pivot: str) -> VassMdp:
    """Encode undirected-graph Hamiltonicity as a one-counter energy question.

    Every directed edge gains +1, except edges leaving `pivot`, which cost
    |V| - 1. A memoryless strategy makes every state choose one successor, so
    each bottom component is a simple cycle; a cycle through `pivot` of length
    k sums to k - |V|, and cycles avoiding `pivot` are strictly positive.
    Hence the graph has a Hamiltonian cycle iff some strategy owns a
    non-losing bottom component containing `pivot`. Meaningful for graphs
    with at least three vertices (a single edge through `pivot` closes a
    2-cycle of sum 2 - |V|, which is non-negative only in the degenerate
    two-vertex graph).
    """
    try:
        vertices, raw_edges = graph["vertices"], graph["edges"]
    except (KeyError, TypeError) as exc:
        raise ValueError("graph must be a mapping with 'vertices' and 'edges'") from exc
    if not isinstance(vertices, list) or not isinstance(raw_edges, list):
        raise ValueError("'vertices' and 'edges' must be lists")
    if len(set(vertices)) != len(vertices) or not vertices:
        raise ValueError("vertices must be nonempty and unique")
    if not all(isinstance(v, str) and v for v in vertices):
        raise ValueError("vertices must be nonempty strings")
    if pivot not in vertices:
        raise VertexNotInGraph(pivot)
    known = set(vertices)
    pairs: set[tuple[str, str]] = set()
    for e in raw_edges:
        if not (isinstance(e, list) and len(e) == 2 and all(isinstance(x, str) for x in e)):
            raise ValueError(f"edge {e!r} must be a list of two vertex names")
        u, v = e
        if u not in known or v not in known:
            raise ValueError(f"edge {e!r} mentions an unknown vertex")
        if u == v:
            raise ValueError(f"self-loop at {u!r} is not allowed")
        pairs.add((min(u, v), max(u, v)))
    n = len(vertices)
    states = [State(v, NONDET) for v in sorted(vertices)]
    transitions = []
    for u, v in sorted(pairs):
        for src, tgt in ((u, v), (v, u)):
            update = 1 - n if src == pivot else 1
            transitions.append(
                Transition(f"t:{src}:{tgt}", src, (update,), tgt, None)
            )
    # an isolated vertex has no outgoing transition; let model validation say so
    return VassMdp(1, states, transitions)
