"""Structural analysis: end-component decomposition, types, reachability.

An end component (EC) is a pair (C, L) — states plus internal transitions —
that is closed (every endpoint in C; for probabilistic states *all* outgoing
transitions stay in C; controlled states keep at least one) and strongly
connected via L. Maximal ECs (here: classes) partition the EC-covered states;
they are computed by iterated SCC refinement below.

A model is DAG-like when no two distinct classes can reach each other. A type
is the sequence of classes a run visits (consecutive duplicates collapsed,
non-class states ignored); a candidate sequence is realizable iff each
consecutive pair is connected by a path avoiding all *other* classes. The
weight of a type multiplies, along its pairs, the maximal probability of
reaching the next class from the current one while treating every third class
as a losing sink — computed exactly by strategy iteration with rational
Markov-chain solves; the values and the choice attaining them are the
certificate a report carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .model import NONDET, PROB, InternalError, VassMdp
from .ratlp import solve_linear_system


MAX_TYPES = 10_000  # sequences `enumerate_types` builds before it gives up

# a class pair's maximal reach values and the choice attaining them
Reach = tuple[dict[str, Fraction], dict[str, str]]


class TooManyTypes(RuntimeError):
    """Type enumeration would build more than MAX_TYPES sequences: on a class
    graph with cycles their number grows exponentially with the length cap."""


@dataclass(frozen=True, order=True)
class Mec:
    """A maximal end component: id, member states, internal transitions."""

    mid: str
    states: frozenset[str]
    transitions: frozenset[str]


@dataclass(frozen=True)
class TypeSeq:
    """A realizable class-visit sequence with its exact weight."""

    mecs: tuple[str, ...]
    weight: Fraction


def _sccs(nodes: list[str], succ: dict[str, list[str]]) -> dict[str, int]:
    """Iterative Tarjan; returns node -> component id (ids arbitrary)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    comp: dict[str, int] = {}
    counter = 0
    comp_id = 0
    for root in nodes:
        if root in index:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, pi = work.pop()
            if pi == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            recursed = False
            children = succ.get(node, [])
            while pi < len(children):
                child = children[pi]
                pi += 1
                if child not in index:
                    work.append((node, pi))
                    work.append((child, 0))
                    recursed = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if recursed:
                continue
            if low[node] == index[node]:
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp[w] = comp_id
                    if w == node:
                        break
                comp_id += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return comp


def mec_decomposition(m: VassMdp) -> list[Mec]:
    """All maximal end components, ids M1..Mk by least member state name."""
    alive_states = set(m.state_names())
    alive_trans = {t.tid for t in m.transitions}

    def drop_state(name: str):
        alive_states.discard(name)
        for t in m.transitions:
            if t.source == name or t.target == name:
                alive_trans.discard(t.tid)

    changed = True
    while changed:
        changed = False
        nodes = sorted(alive_states)
        succ: dict[str, list[str]] = {s: [] for s in nodes}
        for t in m.transitions:
            if t.tid in alive_trans:
                succ[t.source].append(t.target)
        comp = _sccs(nodes, succ)
        for name in nodes:
            if name not in alive_states:
                continue
            if m.kind(name) == PROB:
                # a probabilistic state survives only with every original
                # branch alive and inside its own component
                ok = all(
                    t.tid in alive_trans
                    and t.target in alive_states
                    and comp[t.target] == comp[name]
                    for t in m.out(name)
                )
                if not ok:
                    drop_state(name)
                    changed = True
            else:
                outs = [
                    t
                    for t in m.out(name)
                    if t.tid in alive_trans and t.target in alive_states
                ]
                internal = [t for t in outs if comp[t.target] == comp[name]]
                if not internal:
                    drop_state(name)
                    changed = True
                else:
                    for t in outs:
                        if comp[t.target] != comp[name]:
                            alive_trans.discard(t.tid)
                            changed = True

    nodes = sorted(alive_states)
    succ = {s: [] for s in nodes}
    for t in m.transitions:
        if t.tid in alive_trans:
            succ[t.source].append(t.target)
    comp = _sccs(nodes, succ)
    groups: dict[int, list[str]] = {}
    for name in nodes:
        groups.setdefault(comp[name], []).append(name)
    ordered = sorted(groups.values(), key=min)
    mecs = []
    for i, names in enumerate(ordered, start=1):
        member = set(names)
        tids = frozenset(
            t.tid
            for t in m.transitions
            if t.tid in alive_trans and t.source in member and t.target in member
        )
        if not tids:
            raise InternalError("a surviving component must carry internal transitions")
        mecs.append(Mec(f"M{i}", frozenset(member), tids))
    return mecs


def state_to_mec(mecs: Sequence[Mec]) -> dict[str, str]:
    return {s: mec.mid for mec in mecs for s in mec.states}


def transition_to_mec(mecs: Sequence[Mec]) -> dict[str, str]:
    return {tid: mec.mid for mec in mecs for tid in mec.transitions}


def _reachable_from(m: VassMdp, starts: set[str]) -> set[str]:
    seen = set(starts)
    frontier = list(starts)
    while frontier:
        s = frontier.pop()
        for t in m.out(s):
            if t.target not in seen:
                seen.add(t.target)
                frontier.append(t.target)
    return seen


def is_dag_like(m: VassMdp, mecs: Sequence[Mec]) -> bool:
    """No two distinct classes mutually reachable (via arbitrary paths)."""
    reach = {mec.mid: _reachable_from(m, set(mec.states)) for mec in mecs}
    for a in mecs:
        for b in mecs:
            if a.mid < b.mid:
                if reach[a.mid] & b.states and reach[b.mid] & a.states:
                    return False
    return True


def _connects_avoiding_others(m: VassMdp, frm: Mec, to: Mec, owner: dict[str, str]) -> bool:
    """Path from `frm` to `to` through states of no third class."""
    seen = set(frm.states)
    frontier = list(frm.states)
    while frontier:
        s = frontier.pop()
        for t in m.out(s):
            tgt = t.target
            if tgt in to.states:
                return True
            if tgt in seen:
                continue
            other = owner.get(tgt)
            if other is not None and other != frm.mid:
                continue  # entering a third class is not allowed
            seen.add(tgt)
            frontier.append(tgt)
    return False


def mec_quotient_edges(m: VassMdp, mecs: Sequence[Mec]) -> dict[str, list[str]]:
    """Directed class graph: edge M -> M' iff some path connects them while
    avoiding every other class (this is exactly type-step realizability)."""
    owner = state_to_mec(mecs)
    edges: dict[str, list[str]] = {mec.mid: [] for mec in mecs}
    for a in mecs:
        for b in mecs:
            if a.mid != b.mid and _connects_avoiding_others(m, a, b, owner):
                edges[a.mid].append(b.mid)
    return edges


def enumerate_types(
    m: VassMdp, max_len: int, mecs: Optional[Sequence[Mec]] = None
) -> tuple[list[TypeSeq], dict[tuple[str, str], Reach]]:
    """All realizable types of length <= max_len, with exact weights, and
    the certificate (values, choice) of `max_reach_values` of each class
    pair they step through, keyed by (from, to).

    For a DAG-like model with max_len >= number of classes the list is
    complete (no type can revisit a class). Weight multiplies, along the
    type's class pairs, the maximal probability of reaching the next class
    while every other class is a losing sink, evaluated at the least state
    of the earlier class (it is the same at every state of a class, which
    can be navigated internally); single-class types have weight 1. Each
    pair is solved once. Raises TooManyTypes past MAX_TYPES sequences.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if mecs is None:
        mecs = mec_decomposition(m)
    edges = mec_quotient_edges(m, mecs)
    by_id = {mec.mid: mec for mec in mecs}
    reach: dict[tuple[str, str], Reach] = {}

    def weight_step(a: str, b: str) -> Fraction:
        if (a, b) not in reach:
            sinks = frozenset(
                s for mec in mecs if mec.mid not in (a, b) for s in mec.states
            )
            reach[(a, b)] = max_reach_values(m, frozenset(by_id[b].states), sinks)
        return reach[(a, b)][0][min(by_id[a].states)]

    results: list[TypeSeq] = []

    def extend(seq: list[str], weight: Fraction):
        if len(results) == MAX_TYPES:
            raise TooManyTypes(f"more than {MAX_TYPES} types of length <= {max_len}")
        results.append(TypeSeq(tuple(seq), weight))
        if len(seq) >= max_len:
            return
        for nxt in edges[seq[-1]]:
            extend(seq + [nxt], weight * weight_step(seq[-1], nxt))

    for mec in mecs:
        extend([mec.mid], Fraction(1))
    results.sort(key=lambda ts: (len(ts.mecs), ts.mecs))
    return results, reach


# --- maximal reachability ------------------------------------------------------


def _chain_values(
    m: VassMdp,
    choice: dict[str, str],
    targets: frozenset[str],
    sinks: frozenset[str],
) -> dict[str, Fraction]:
    """Exact reach-target probabilities of the chain induced by `choice`, with
    targets and sinks absorbing: 0 where the chain has no path to a target,
    else the solution of the chain's linear system."""
    succ: dict[str, list[tuple[Fraction, str]]] = {}
    pred: dict[str, set[str]] = {s.name: set() for s in m.states}
    for s in m.states:
        if s.name in targets or s.name in sinks:
            succ[s.name] = []
        elif s.kind == NONDET:
            succ[s.name] = [(Fraction(1), m.transition(choice[s.name]).target)]
        else:
            succ[s.name] = [(t.prob, t.target) for t in m.out(s.name)]
        for _, tgt in succ[s.name]:
            pred[tgt].add(s.name)
    can_reach = set(targets)
    frontier = list(targets)
    while frontier:
        s = frontier.pop()
        for p in pred[s]:
            if p not in can_reach:
                can_reach.add(p)
                frontier.append(p)
    known = [s for s in m.state_names() if s in targets or s not in can_reach]
    values = {s: Fraction(1 if s in targets else 0) for s in known}

    unknown = sorted(n for n in can_reach if n not in targets)
    if unknown:
        idx = {n: i for i, n in enumerate(unknown)}
        size = len(unknown)
        mat = [[Fraction(0)] * size for _ in range(size)]
        rhs = [Fraction(0)] * size
        for n in unknown:
            i = idx[n]
            mat[i][i] = Fraction(1)
            for p, tgt in succ[n]:
                if tgt in idx:
                    mat[i][idx[tgt]] -= p
                else:
                    rhs[i] += p * values[tgt]
        sol = solve_linear_system(mat, rhs)
        if sol is None:
            raise InternalError("reach system is nonsingular for proper chains")
        for n, v in zip(unknown, sol):
            values[n] = v
    return values


def max_reach_values(m: VassMdp, targets: frozenset[str], sinks: frozenset[str]) -> Reach:
    """Optimal reach-`targets` probabilities (sinks absorbing and losing).

    Strategy iteration over memoryless deterministic strategies: start from
    the least transition id everywhere, evaluate the induced chain exactly,
    switch a controlled state only on strict improvement (to its least-id
    argmax). Returns (values, optimal choice map).
    """
    if targets & sinks:
        raise InternalError(f"states {sorted(targets & sinks)} are both targets and sinks")
    choice = {
        s.name: m.out(s.name)[0].tid
        for s in m.nondet_states()
        if s.name not in targets and s.name not in sinks
    }
    guard = 0
    while True:
        guard += 1
        if guard > 10_000:
            raise InternalError("strategy iteration failed to converge")
        values = _chain_values(m, choice, targets, sinks)
        improved = False
        for s in m.nondet_states():
            name = s.name
            if name in targets or name in sinks:
                continue
            best_tid, best_val = None, None
            for t in m.out(name):  # ordered by tid: least-id argmax wins
                v = values[t.target]
                if best_val is None or v > best_val:
                    best_tid, best_val = t.tid, v
            if best_val > values[name]:
                choice[name] = best_tid
                improved = True
        if not improved:
            return values, choice
