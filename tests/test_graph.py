"""Structural layer tests.

Two independent oracles back the algorithms here:
- end components: subset enumeration checks every candidate state set directly
  against the closure + strong-connectivity definition, then takes maximal sets;
- reachability values: exhaustive evaluation of every memoryless deterministic
  strategy via the exact chain solver.
"""

import time
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings

from vass_asym.graph import (
    MAX_TYPES,
    TooManyTypes,
    _chain_values,
    enumerate_types,
    is_dag_like,
    max_reach_values,
    mec_decomposition,
    mec_quotient_edges,
    state_to_mec,
    transition_to_mec,
)
from vass_asym.check import AttestationError, check_report
from vass_asym.cli import build_analysis
from vass_asym.model import NONDET, PROB, Counter, State, Transition, VassMdp
from strategies import random_models


def _strongly_connected(states, edges):
    if not states:
        return False
    succ = {s: [] for s in states}
    pred = {s: [] for s in states}
    for a, b in edges:
        succ[a].append(b)
        pred[b].append(a)
    for adj in (succ, pred):
        seen = {next(iter(sorted(states)))}
        frontier = list(seen)
        while frontier:
            s = frontier.pop()
            for nxt in adj[s]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        if seen != set(states):
            return False
    return True


def brute_force_mecs(m):
    """Maximal end components by direct subset checking."""
    names = m.state_names()
    ec_sets = []
    for r in range(1, len(names) + 1):
        for cand in combinations(names, r):
            cs = set(cand)
            ok = True
            for s in cs:
                outs = m.out(s)
                inside = [t for t in outs if t.target in cs]
                if m.kind(s) == PROB:
                    if len(inside) != len(outs):
                        ok = False
                        break
                elif not inside:
                    ok = False
                    break
            if not ok:
                continue
            internal_edges = [
                (t.source, t.target)
                for t in m.transitions
                if t.source in cs and t.target in cs
            ]
            if _strongly_connected(cs, internal_edges):
                ec_sets.append(frozenset(cs))
    return {c for c in ec_sets if not any(c < d for d in ec_sets)}


@given(random_models())
@settings(max_examples=120, deadline=None)
def test_mec_decomposition_matches_subset_oracle(m):
    mecs = mec_decomposition(m)
    got = {mec.states for mec in mecs}
    assert got == brute_force_mecs(m)
    # internal transition sets are exactly the induced transitions
    for mec in mecs:
        induced = {
            t.tid
            for t in m.transitions
            if t.source in mec.states and t.target in mec.states
        }
        assert mec.transitions == induced
    # disjointness and id order
    seen = set()
    for mec in mecs:
        assert not (mec.states & seen)
        seen |= mec.states
    assert [mec.mid for mec in mecs] == [f"M{i}" for i in range(1, len(mecs) + 1)]
    assert sorted(min(mec.states) for mec in mecs) == [min(mec.states) for mec in mecs]


def test_pump_mec_structure(pump):
    mecs = mec_decomposition(pump)
    assert {mec.mid: set(mec.states) for mec in mecs} == {
        "M1": {"a", "b"},
        "M2": {"c"},
        "M3": {"e"},
        "M4": {"f"},
    }
    owner = state_to_mec(mecs)
    assert "q" not in owner
    towner = transition_to_mec(mecs)
    assert towner["c_c"] == "M2"
    assert "a_q" not in towner  # leaves M1, not internal
    assert is_dag_like(pump, mecs)


def test_walk_is_single_mec(walk):
    mecs = mec_decomposition(walk)
    assert len(mecs) == 1
    assert mecs[0].states == frozenset({"p"})
    assert mecs[0].transitions == frozenset({"t_down", "t_up"})


def _mutually_reachable_classes_model():
    # two singleton classes that can reach each other only through escaping
    # probabilistic states, so they stay distinct classes
    states = [
        State("p", "nondet"),
        State("q", "nondet"),
        State("r", "prob"),
        State("r2", "prob"),
        State("s", "nondet"),
    ]
    transitions = [
        Transition("t_p", "p", (0,), "p"),
        Transition("t_pr", "p", (0,), "r"),
        Transition("t_q", "q", (0,), "q"),
        Transition("t_qr", "q", (0,), "r2"),
        Transition("t_r_q", "r", (0,), "q", Fraction(1, 2)),
        Transition("t_r_s", "r", (0,), "s", Fraction(1, 2)),
        Transition("t_r2_p", "r2", (0,), "p", Fraction(1, 2)),
        Transition("t_r2_s", "r2", (0,), "s", Fraction(1, 2)),
        Transition("t_s", "s", (0,), "s"),
    ]
    return VassMdp(1, states, transitions)


def _three_mutually_reachable_classes_model():
    # three singleton classes, each reaching both others through a router
    # that may also escape to a sink: 2^k types of length k+1
    names = ("p", "q", "w")
    states = [State(n, "nondet") for n in names]
    states += [State(f"r_{n}", "prob") for n in names] + [State("s", "nondet")]
    zero = (0, 0)
    third = Fraction(1, 3)
    transitions = [Transition("t_s", "s", zero, "s")]
    for n in names:
        transitions += [
            Transition(f"t_{n}", n, (1, 0), n),
            Transition(f"t_{n}_r", n, zero, f"r_{n}"),
            Transition(f"t_r_{n}_s", f"r_{n}", zero, "s", third),
        ]
        transitions += [
            Transition(f"t_r_{n}_{o}", f"r_{n}", zero, o, third) for o in names if o != n
        ]
    return VassMdp(2, states, transitions)


def _two_classes_around_a_hub_model():
    # d = 1: singleton classes a and b are both reached from the class c and
    # lead back to it, each through a router that may escape to a sink
    zero = (0,)
    half, third = Fraction(1, 2), Fraction(1, 3)
    states = [State(n, NONDET) for n in ("a", "b", "c", "s")]
    states += [State(f"r_{n}", PROB) for n in ("a", "b", "c")]
    transitions = [Transition("t_s", "s", zero, "s")]
    for n in ("a", "b", "c"):
        transitions += [
            Transition(f"t_{n}", n, (1,), n),
            Transition(f"t_{n}_r", n, zero, f"r_{n}"),
        ]
    transitions += [
        Transition("t_r_c_a", "r_c", zero, "a", third),
        Transition("t_r_c_b", "r_c", zero, "b", third),
        Transition("t_r_c_s", "r_c", zero, "s", third),
    ]
    for n in ("a", "b"):
        transitions += [
            Transition(f"t_r_{n}_c", f"r_{n}", zero, "c", half),
            Transition(f"t_r_{n}_s", f"r_{n}", zero, "s", half),
        ]
    return VassMdp(1, states, transitions)


def test_type_enumeration_budget():
    m = _two_classes_around_a_hub_model()
    mecs = mec_decomposition(m)
    assert sorted(min(x.states) for x in mecs) == ["a", "b", "c", "s"]
    assert not is_dag_like(m, mecs)
    # a, b and s follow c; c and s follow a or b; nothing follows s
    lengths = [len(ts.mecs) for ts in enumerate_types(m, 5, mecs)[0]]
    assert [lengths.count(k) for k in range(1, 6)] == [4, 7, 10, 14, 20]
    t0 = time.monotonic()
    with pytest.raises(TooManyTypes, match=f"more than {MAX_TYPES} types of length <= 40"):
        enumerate_types(m, 40, mecs)
    assert time.monotonic() - t0 < 5.0


def test_not_dag_like_detected():
    m = _mutually_reachable_classes_model()
    mecs = mec_decomposition(m)
    assert {frozenset(x.states) for x in mecs} == {
        frozenset({"p"}),
        frozenset({"q"}),
        frozenset({"s"}),
    }
    assert not is_dag_like(m, mecs)

    m = _three_mutually_reachable_classes_model()
    mecs = mec_decomposition(m)
    assert sorted(min(x.states) for x in mecs) == ["p", "q", "s", "w"]
    assert not is_dag_like(m, mecs)


def test_pump_types_and_weights(pump):
    types, _ = enumerate_types(pump, max_len=4)
    as_map = {ts.mecs: ts.weight for ts in types}
    assert as_map == {
        ("M1",): Fraction(1),
        ("M2",): Fraction(1),
        ("M3",): Fraction(1),
        ("M4",): Fraction(1),
        ("M1", "M2"): Fraction(1),
        ("M1", "M3"): Fraction(1, 2),
        ("M1", "M4"): Fraction(1, 2),
    }
    assert len(types) == 7
    # complete already at max_len = number of classes
    assert types == enumerate_types(pump, max_len=4 + 3)[0]


def test_types_respect_max_len(pump):
    assert all(len(ts.mecs) == 1 for ts in enumerate_types(pump, max_len=1)[0])
    with pytest.raises(ValueError):
        enumerate_types(pump, max_len=0)


def test_type_step_must_avoid_third_class():
    # M1 -> M2 -> M3 chain: M3 only reachable through M2's state, so the
    # type (M1, M3) must not be offered.
    states = [
        State("a", "nondet"),
        State("b", "nondet"),
        State("c", "nondet"),
    ]
    transitions = [
        Transition("t_a", "a", (0,), "a"),
        Transition("t_ab", "a", (0,), "b"),
        Transition("t_b", "b", (0,), "b"),
        Transition("t_bc", "b", (0,), "c"),
        Transition("t_c", "c", (0,), "c"),
    ]
    m = VassMdp(1, states, transitions)
    mecs = mec_decomposition(m)
    edges = mec_quotient_edges(m, mecs)
    assert edges == {"M1": ["M2"], "M2": ["M3"], "M3": []}
    got = {ts.mecs for ts in enumerate_types(m, max_len=3)[0]}
    assert ("M1", "M3") not in got
    assert ("M1", "M2", "M3") in got


# --- reachability --------------------------------------------------------------


def brute_force_reach(m, targets, sinks):
    """Max reach probability per state by enumerating all MD strategies."""
    movable = [
        s.name
        for s in m.nondet_states()
        if s.name not in targets and s.name not in sinks
    ]
    choices = [[t.tid for t in m.out(name)] for name in movable]
    best = {s.name: Fraction(0) for s in m.states}
    for combo in product(*choices) if movable else [()]:
        choice = dict(zip(movable, combo))
        vals = _chain_values(m, choice, targets, sinks)
        for name, v in vals.items():
            if v > best[name]:
                best[name] = v
    return best


@given(random_models(max_states=4))
@settings(max_examples=60, deadline=None)
def test_max_reach_matches_strategy_enumeration(m):
    names = m.state_names()
    targets = frozenset({names[-1]})
    sinks = frozenset({names[0]}) - targets
    values, choice = max_reach_values(m, targets, sinks)
    expected = brute_force_reach(m, targets, sinks)
    assert values == expected
    # the returned strategy actually attains the optimum
    attained = _chain_values(m, choice, targets, sinks)
    assert attained == values


def test_reach_certificate_checks(pump):
    # p may loop forever or move to the target g: classes M1 = {g}, M2 = {p}
    m = VassMdp(
        1,
        [State("g", NONDET), State("p", NONDET)],
        [
            Transition("t_gg", "g", (0,), "g", None),
            Transition("t_pg", "p", (0,), "g", None),
            Transition("t_pp", "p", (0,), "p", None),
        ],
    )
    values, choice = max_reach_values(m, frozenset({"g"}), frozenset())
    assert (values, choice) == ({"g": 1, "p": 1}, {"p": "t_pg"})
    doc = build_analysis(m)
    assert doc["reach"] == [
        {"from": "M2", "to": "M1", "values": {"g": "1", "p": "1"}, "choice": {"p": "t_pg"}}
    ]

    def reach_failures(values, choice):
        doc["reach"][0].update(values=values, choice=choice)
        try:
            check_report(m, doc)
        except AttestationError as e:
            prefix = "reach M2->M1: "
            return [f[len(prefix):] for f in str(e).split("; ") if f.startswith(prefix)]
        return []

    assert reach_failures({"g": "1", "p": "1"}, {"p": "t_pg"}) == []
    # the looping strategy: value 1 satisfies p's chain equation, but the
    # chain never reaches g from p
    (bad,) = reach_failures({"g": "1", "p": "1"}, {"p": "t_pp"})
    assert "cannot reach the target" in bad
    (bad,) = reach_failures({"g": "1"}, {})
    assert "improving deviation at p via t_pg" in bad
    assert reach_failures({"g": "1", "p": "1/2"}, {"p": "t_pg"}) == [
        "chain equation fails at p: 1/2 != 1",
        "improving deviation at p via t_pg",
    ]
    assert reach_failures({}, {}) == ["target g has value 0 != 1"]
    # every third class is a losing sink: pump's M1 -> M3 avoids f of M4
    doc = build_analysis(pump, [Counter(3)])
    (entry,) = [e for e in doc["reach"] if (e["from"], e["to"]) == ("M1", "M3")]
    entry["values"]["f"] = "1"
    with pytest.raises(AttestationError, match="reach M1->M3: sink f has value 1 != 0"):
        check_report(pump, doc)


def test_pair_probabilities_constant_on_class(pump):
    mecs = mec_decomposition(pump)
    by_id = {mec.mid: mec for mec in mecs}
    m1, m3 = by_id["M1"], by_id["M3"]
    sinks = frozenset(
        s for mec in mecs if mec.mid not in ("M1", "M3") for s in mec.states
    )
    values, _ = max_reach_values(pump, frozenset(m3.states), sinks)
    assert {values[s] for s in m1.states} == {Fraction(1, 2)}


def test_pair_probability_requires_distinct(pump):
    doc = build_analysis(pump, [Counter(3)])
    doc["reach"][0]["to"] = doc["reach"][0]["from"]
    with pytest.raises(ValueError, match="source and target class must differ"):
        check_report(pump, doc)


def _pair_value(m, frm, to):
    """Maximal probability of reaching class `to` from the least state of
    class `frm` while every other class is a losing sink."""
    mecs = mec_decomposition(m)
    sinks = frozenset(s for mec in mecs if mec.mid not in (frm, to) for s in mec.states)
    by_id = {mec.mid: mec for mec in mecs}
    values, _ = max_reach_values(m, frozenset(by_id[to].states), sinks)
    return values[min(by_id[frm].states)]


def test_half_probability_exact(pump):
    assert _pair_value(pump, "M1", "M2") == 1
    assert _pair_value(pump, "M1", "M4") == Fraction(1, 2)
    assert _pair_value(pump, "M2", "M1") == 0
    _, reach = enumerate_types(pump, 4)  # each pair's certificate, at M1's least state a
    assert {pair: values["a"] for pair, (values, _) in reach.items()} == {
        ("M1", "M2"): 1,
        ("M1", "M3"): Fraction(1, 2),
        ("M1", "M4"): Fraction(1, 2),
    }
