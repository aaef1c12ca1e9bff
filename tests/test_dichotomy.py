"""Constraint-system layer tests.

The class-local facts frozen here were derived by hand from the two systems:
for the fair +-1 walk the flow must balance the two loops and no counter can
be pumped; for the three-counter pump network class M1 = {a, b} the controlled
row forces z(b) <= z(a) while the expectation row forces z(a) + y2 <= z(b), so
y2 = 0 and counter 2 is the only pumped one, with no strict rows anywhere.
"""

import sys
from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from conftest import MODELS, load_doc, load_model
from oracles import (
    augment_step_counter,
    candidate_rows,
    classify,
    classify_counters_mec,
    force_probe_order,
    reference_classify_dag,
    reference_strict_labels,
    solve_failures,
    strict_labels,
)
from vass_asym.dichotomy import (
    Label,
    build_systems,
    classify_dag,
    compute_maximal_solutions,
    rank_delta,
    run_dag_pipeline,
    use_count_outside_type,
)
from vass_asym import dichotomy, ratlp
from vass_asym.check import AttestationError, check_report
from vass_asym.cli import build_analysis
from vass_asym.graph import enumerate_types, is_dag_like, mec_decomposition, transition_to_mec
from vass_asym.onedim import compute_inventory, hamiltonian_reduction, labels_from_inventory
from vass_asym.model import (
    Counter,
    InternalError,
    State,
    Termination,
    Transition,
    TransitionCount,
    UnknownTransition,
    VassMdp,
    parse_measure,
    zero_counters,
)
from strategies import random_model_from_rng, random_models


def _single_mec(m):
    mecs = mec_decomposition(m)
    assert len(mecs) == 1
    return mecs[0]


def test_walk_flow_balances_loops(walk):
    mec = _single_mec(walk)
    witness, ranking = compute_maximal_solutions(walk, mec)
    assert witness.x["t_down"] == witness.x["t_up"] >= 1
    assert witness.positive_counters == frozenset()
    assert witness.positive_transitions == frozenset({"t_down", "t_up"})
    assert ranking.y[1] >= 1
    assert ranking.strict_nondet == frozenset()
    assert ranking.strict_prob == frozenset()
    assert solve_failures(walk, mec, witness, ranking) == []


def test_walk_counter_tight_linear(walk):
    mec = _single_mec(walk)
    assert classify_counters_mec(walk, mec) == {1: Label.TIGHT_LINEAR}


def test_decreasing_loop_all_strict(dec_loop):
    mec = _single_mec(dec_loop)
    witness, ranking = compute_maximal_solutions(dec_loop, mec)
    assert witness.x["t_dec"] == 0
    assert ranking.y[1] >= 1
    assert ranking.strict_nondet == frozenset({"t_dec"})
    assert rank_delta(dec_loop, ranking, dec_loop.transition("t_dec")) < 0
    assert solve_failures(dec_loop, mec, witness, ranking) == []


def test_pump_m1_forces_y2_zero(pump):
    mecs = {mec.mid: mec for mec in mec_decomposition(pump)}
    witness, ranking = compute_maximal_solutions(pump, mecs["M1"])
    assert ranking.y[1] >= 1
    assert ranking.y[2] == 0
    assert ranking.y[3] >= 1
    assert ranking.strict_nondet == frozenset()
    assert ranking.strict_prob == frozenset()
    assert witness.positive_counters == frozenset({2})
    # the pump flow balances the two coin branches
    assert witness.x["b_a_minus"] == witness.x["b_a_plus"] >= 1
    assert classify_counters_mec(pump, mecs["M1"]) == {
        1: Label.TIGHT_LINEAR,
        2: Label.LOWER_QUADRATIC,
        3: Label.TIGHT_LINEAR,
    }


def test_pump_m2_alone_is_all_linear(pump):
    # standalone, counter 3's growth in M2 is paid by counter 2's own budget
    # (rank y = (0, 1, 1)); only the pipeline's zeroing of a pumped counter 2
    # exposes the quadratic transfer
    mecs = {mec.mid: mec for mec in mec_decomposition(pump)}
    assert classify_counters_mec(pump, mecs["M2"]) == {
        1: Label.TIGHT_LINEAR,
        2: Label.TIGHT_LINEAR,
        3: Label.TIGHT_LINEAR,
    }


def test_system_builders_shapes(pump):
    mecs = {mec.mid: mec for mec in mec_decomposition(pump)}
    p1, p2, pairs = build_systems(pump, mecs["M1"])
    assert set(p1.variables) == {"x:a_b", "x:b_a_minus", "x:b_a_plus"}
    assert set(p2.variables) == {"y:1", "y:2", "y:3", "z:a", "z:b"}
    assert [(r1.label, r2.label) for r1, r2 in pairs] == [
        ("counter:1", "counter:1"),
        ("counter:2", "counter:2"),
        ("counter:3", "counter:3"),
        ("transition:a_b", "nondet:a_b"),
        ("transition:b_a_minus", "prob:b"),
    ]
    rows1, rows2 = candidate_rows(pump, mecs["M1"])
    assert [c.label for c in rows1] == [
        "counter:1",
        "counter:2",
        "counter:3",
        "transition:a_b",
        "transition:b_a_minus",
        "transition:b_a_plus",
    ]
    assert rows2 == tuple(r2 for _, r2 in pairs)


def test_zero_dimensional_ranking_system():
    # no counters: only potentials; the strict row on the 2-cycle is unachievable
    m = VassMdp(
        0,
        [State("p", "nondet"), State("q", "nondet")],
        [
            Transition("t_pq", "p", (), "q"),
            Transition("t_qp", "q", (), "p"),
        ],
    )
    mec = _single_mec(m)
    _, p2, _ = build_systems(m, mec)
    assert set(p2.variables) == {"z:p", "z:q"}
    _, ranking = compute_maximal_solutions(m, mec)
    assert ranking.y == {}
    assert ranking.strict_nondet == frozenset()


# --- pipeline -------------------------------------------------------------------


def _mecs_by_id(m):
    return {mec.mid: mec for mec in mec_decomposition(m)}


def _pumped(pipeline):
    return frozenset().union(*(step.newly_pumped for step in pipeline))


def test_pipeline_promotion_chain(pump):
    by_id = _mecs_by_id(pump)
    pipeline = run_dag_pipeline(pump, [by_id["M1"], by_id["M2"]])
    assert pipeline[0].newly_pumped == frozenset({2})
    assert pipeline[1].zeroed == frozenset({2})
    assert pipeline[1].newly_pumped == frozenset({3})
    assert _pumped(pipeline) == frozenset({2, 3})
    est, classified = classify(pump, ("M1", "M2"), Counter(3))
    assert classified == pipeline  # the walk does not depend on the measure
    assert not est.beyond_quadratic_hint  # budget-limited transfer, drift -1


def test_classify_dag_counter_labels(pump):
    est_12, _ = classify(pump, ("M1", "M2"), Counter(3))
    assert est_12.label is Label.LOWER_QUADRATIC
    assert not est_12.beyond_quadratic_hint

    est_13, _ = classify(pump, ("M1", "M3"), Counter(3))
    assert est_13.label is Label.TIGHT_LINEAR

    est_14, _ = classify(pump, ("M1", "M4"), Counter(3))
    assert est_14.label is Label.LOWER_QUADRATIC
    assert est_14.beyond_quadratic_hint  # fluctuation-limited: drift 0 on counter 2


def test_classify_dag_counter1_stays_linear(pump):
    for beta in [("M1",), ("M1", "M2"), ("M1", "M4")]:
        est, _ = classify(pump, beta, Counter(1))
        assert est.label is Label.TIGHT_LINEAR


def test_classify_dag_termination(pump):
    assert classify(pump, ("M1", "M2"), Termination())[0].label is Label.LOWER_QUADRATIC
    assert classify(pump, ("M2",), Termination())[0].label is Label.TIGHT_LINEAR


def test_classify_dag_termination_walk(walk):
    est, _ = classify(walk, ("M1",), Termination())
    assert est.label is Label.LOWER_QUADRATIC


def test_classify_dag_transition_counts(pump):
    est, pipeline = classify(pump, ("M1", "M2"), TransitionCount("c_c"))
    assert est.label is Label.LOWER_QUADRATIC
    assert [step.mec_id for step in pipeline] == ["M1", "M2"]

    est, pipeline = classify(pump, ("M1", "M3"), TransitionCount("c_c"))
    assert est.label is Label.TIGHT_ZERO and pipeline is None

    est, _ = classify(pump, ("M1", "M3"), TransitionCount("e_e"))
    assert est.label is Label.LOWER_QUADRATIC

    est, _ = classify(pump, ("M2",), TransitionCount("c_c"))
    assert est.label is Label.UPPER_LINEAR

    est, pipeline = classify(pump, ("M1", "M2"), TransitionCount("a_q"))
    assert est.label is Label.UPPER_TYPE_LENGTH and pipeline is None
    assert est.bound == 2

    with pytest.raises(UnknownTransition):  # build_analysis validates the measures
        build_analysis(pump, [TransitionCount("ghost")])


def test_augment_every_transition(walk):
    aug = augment_step_counter(walk)
    assert aug.dimension == 2
    assert aug.transition("t_up").update == (1, 1)
    assert aug.transition("t_down").update == (-1, 1)


def test_augment_single_transition(pump):
    aug = augment_step_counter(pump, only="c_c")
    assert aug.dimension == 4
    assert aug.transition("c_c").update == (0, -1, 1, 1)
    assert aug.transition("a_b").update == (0, 0, 0, 0)
    with pytest.raises(UnknownTransition):
        augment_step_counter(pump, only="ghost")


def _decision(est):
    return (est.label, est.tag, est.exact, est.bound, est.beyond_quadratic_hint)


def _assert_matches_step_counter_encoding(m):
    """L and every pipeline-backed T:t, on every type, agree with counter
    d+1 of the step-counter-augmented model (TightLinear read as UpperLinear
    for a use count: a linear cap promises no uses). Returns the number of
    estimates compared."""
    mecs = mec_decomposition(m)
    compared = 0
    for ts in enumerate_types(m, max(1, len(mecs)), mecs)[0]:
        beta = ts.mecs
        direct, _ = classify(m, beta, Termination())
        oracle, _ = classify(augment_step_counter(m), beta, Counter(m.dimension + 1))
        assert _decision(direct) == _decision(oracle), ("L", beta)
        compared += 1
        for t in m.transitions:
            direct, pipeline = classify(m, beta, TransitionCount(t.tid))
            if pipeline is None:
                continue  # transient transition or class off the type: no pipeline
            oracle, _ = classify(
                augment_step_counter(m, only=t.tid), beta, Counter(m.dimension + 1)
            )
            expected = _decision(oracle)
            if oracle.label is Label.TIGHT_LINEAR:
                expected = (Label.UPPER_LINEAR,) + expected[1:]
            assert _decision(direct) == expected, (t.tid, beta)
            compared += 1
    return compared


def test_encoding_coherence_termination_vs_step_counter(pump):
    assert _assert_matches_step_counter_encoding(pump) >= 10
    # the hint is ported too: M4's coin flips lean on the pumped counter 2
    est, _ = classify(pump, ("M1", "M4"), TransitionCount("f_f_up"))
    assert est.label is Label.LOWER_QUADRATIC and est.beyond_quadratic_hint


@given(random_models(max_states=3, min_dim=2, max_dim=3, max_update=2))
@settings(max_examples=30, deadline=None)
def test_encoding_coherence_random_dag_models(m):
    assume(is_dag_like(m, mec_decomposition(m)))
    _assert_matches_step_counter_encoding(m)


def test_hint_without_its_unzeroed_solve_is_internal_error(pump):
    # C:3 is pumped in M4 after M1 pumped counter 2: its hint reads M4's
    # solve with nothing zeroed, which the caller has not made here
    mecs = mec_decomposition(pump)
    by_id = {mec.mid: mec for mec in mecs}
    with pytest.raises(InternalError, match="no solve of class M4 with nothing zeroed"):
        classify_dag(pump, [by_id["M1"], by_id["M4"]], Counter(3), transition_to_mec(mecs), {})


def _check_failures(m, doc):
    with pytest.raises(AttestationError) as failed:
        check_report(m, doc)
    return str(failed.value).split("; ")


def test_hint_needs_the_pump_flow_to_move_a_zeroed_counter():
    # M2's loop b_b pumps counter 2 after M1's pumped counter 1, which it
    # leaves alone; the drain b_d moves counter 1, but no flow of M2 with
    # nothing zeroed uses it: no hint, and the checker re-derives that
    states = [State("a", "nondet"), State("b", "nondet")]
    steps = [
        ("a_a", "a", (1, 0), "a"),
        ("a_b", "a", (0, 0), "b"),
        ("b_b", "b", (0, 1), "b"),
        ("b_d", "b", (-1, 0), "b"),
    ]
    m = VassMdp(2, states, [Transition(t, s, u, d) for t, s, u, d in steps])
    doc = build_analysis(m, [Counter(2)])
    e = next(e for e in doc["estimates"]["C:2"] if len(e["type"]) == 2)
    assert e["label"] == "LowerQuadratic" and not e["beyond_quadratic_hint"]
    assert e["witnesses"] == {}
    e["beyond_quadratic_hint"] = True
    along = ",".join(e["type"])
    want = f"C:2 along {along}: beyond_quadratic_hint true, but the report gives false"
    assert want in _check_failures(m, doc)


def test_pipeline_bookkeeping_is_verified(pump):
    # the checker reads each type's pipeline off the solves itself: M2 after
    # M1 must be solved with counter 2, which M1 pumps, zeroed
    doc = build_analysis(pump, [Counter(2)])
    assert check_report(pump, doc) == doc["attestation"]["checks"]
    (m2,) = [s for s in doc["solves"] if (s["class"], s["zeroed_counters"]) == ("M2", [2])]
    m2["zeroed_counters"] = []
    failures = _check_failures(pump, doc)
    assert "class M2 with [] zeroed: solved twice" in failures
    assert (
        "C:2 along M1,M2: label LowerQuadratic, but the report gives no label "
        "(no solve of class M2 with [2] zeroed)"
    ) in failures


def test_pipeline_monotone_prefix(pump):
    by_id = _mecs_by_id(pump)
    full = run_dag_pipeline(pump, [by_id["M1"], by_id["M4"]])
    prefix = run_dag_pipeline(pump, [by_id["M1"]])
    assert prefix == full[:1]
    assert _pumped(prefix) <= _pumped(full)


def test_use_count_rules_agree_across_regimes():
    """A transition in no class and one whose class the type skips: the
    one-counter case table and the DAG pipeline return the same estimate."""
    states = [State("a", "nondet"), State("b", "nondet")]
    steps = [("la", "a", 1, "a"), ("go", "a", 0, "b"), ("lb", "b", -1, "b")]
    one = VassMdp(1, states, [Transition(t, s, (u,), d) for t, s, u, d in steps])
    two = VassMdp(2, states, [Transition(t, s, (u, 0), d) for t, s, u, d in steps])
    mecs = mec_decomposition(one)
    owner = transition_to_mec(mecs)
    inventory = compute_inventory(one, mecs)
    tags = set()
    for ts in enumerate_types(one, len(mecs), mecs)[0]:
        for tid in ("go", "la", "lb"):
            want = use_count_outside_type(TransitionCount(tid), ts.mecs, owner)
            if want is None:
                continue
            assert labels_from_inventory(inventory, TransitionCount(tid), ts.mecs, owner) == want
            assert classify(two, ts.mecs, TransitionCount(tid)) == (want, None)
            tags.add(want.tag)
    assert tags == {"transient-transition-geometric-tail", "class-not-in-type"}


def _fair_coin_after_a_pump():
    """M1 = {a} pumps counter 1. M2's fair coin at b moves counter 1 with no
    drift, and its loop c_t pumps counter 2 only once counter 1 is zeroed:
    M2's flows with nothing zeroed use the coin, but neither c_t nor
    counter 2, so C:2 and T:c_t along M1,M2 carry no hint, while the coin's
    use counts do."""
    states = [State("a", "nondet"), State("b", "prob"), State("c", "nondet")]
    half = Fraction(1, 2)
    return VassMdp(2, states, [
        Transition("a_a", "a", (1, 0), "a"),
        Transition("a_b", "a", (0, 0), "b"),
        Transition("b_up", "b", (1, 0), "c", half),
        Transition("b_dn", "b", (-1, 0), "c", half),
        Transition("c_b", "c", (0, 0), "b"),
        Transition("c_t", "c", (-1, 1), "c"),
    ])


def test_classify_dag_matches_tracking_walk_reference(monkeypatch, pump, hint_draw):
    """Seeded random DAG-like models, the pump and a pinned draw: on every
    measure and type, the report gives the label, tag, exactness, bound and
    hint of the reference walk that tracks the measure as it goes. The walk
    decides each hint by the rule's definition, with LPs
    (`reference_fluctuation_hint`), where the analyzer reads it off the
    class's listed solve with nothing zeroed."""
    rng = Random(1)
    models = [random_model_from_rng(rng, rng.randint(2, 4), rng.randint(2, 3), 1) for _ in range(10)]
    zeroed_steps = []
    reference = oracles.reference_fluctuation_hint

    def counted(*args):
        zeroed_steps.append(args)
        return reference(*args)

    monkeypatch.setattr(oracles, "reference_fluctuation_hint", counted)
    hints = 0
    for m in models + [pump, hint_draw, _fair_coin_after_a_pump()]:
        mecs = mec_decomposition(m)
        owner, by_id = transition_to_mec(mecs), {mec.mid: mec for mec in mecs}
        doc = build_analysis(m)
        for mkey, entries in doc["estimates"].items():
            for e in entries:
                want = reference_classify_dag(m, [by_id[b] for b in e["type"]], parse_measure(mkey), owner)
                got = (e["label"], e["tag"], e["exact"], e["bound"], e["beyond_quadratic_hint"])
                assert got == want, (mkey, e["type"])
                hints += e["beyond_quadratic_hint"]
    assert hints >= 3 and len(zeroed_steps) > hints  # both outcomes of the rule are compared
    # the pinned draw: M1's unzeroed flow uses the drain loop t000 and spends
    # no counter, though a flow of the zeroed class may use t000 alone
    pinned = build_analysis(hint_draw)["estimates"]["T:t000"]
    assert next(e for e in pinned if e["type"] == ["M2", "M1"])["beyond_quadratic_hint"]


def test_every_lp_of_the_analysis_is_a_class_solve_pair_step(monkeypatch, pump):
    """`build_analysis` solves LPs only in a class solve's pair steps
    (`_pair_step`): the hints are read off the solves, and cost none."""
    callers = []
    solve = ratlp.solve_feasibility

    def recording(problem):
        callers.append(sys._getframe(2).f_code.co_name)  # the caller of `_probe`
        return solve(problem)

    for name, module in list(sys.modules.items()):
        if name.startswith("vass_asym") and getattr(module, "solve_feasibility", None) is solve:
            monkeypatch.setattr(module, "solve_feasibility", recording)
    rng = Random(5)
    draws = [random_model_from_rng(rng, rng.randint(2, 4), rng.randint(2, 3), 2) for _ in range(6)]
    hints = 0
    for m in [pump] + draws:
        doc = build_analysis(m)
        hints += sum(e["beyond_quadratic_hint"] for es in doc["estimates"].values() for e in es)
    assert len(callers) > 100 and set(callers) == {"_pair_step"}
    assert hints >= 3  # the pump's 3 along M1,M4


def test_determinism(pump):
    mecs = mec_decomposition(pump)
    a = compute_maximal_solutions(pump, mecs[0])
    b = compute_maximal_solutions(pump, mecs[0])
    assert repr(a) == repr(b)


# --- the dichotomy itself, property-tested --------------------------------------


@given(random_models(max_states=4, max_dim=2, max_update=3))
@settings(max_examples=100, deadline=None)
def test_dichotomy_holds_on_random_classes(m):
    for mec in mec_decomposition(m):
        witness, ranking = compute_maximal_solutions(m, mec)
        assert solve_failures(m, mec, witness, ranking) == []


@given(random_models(max_states=4, max_dim=2, max_update=3))
@settings(max_examples=60, deadline=None)
def test_counter_labels_partition(m):
    for mec in mec_decomposition(m):
        labels = classify_counters_mec(m, mec)
        assert set(labels) == set(range(1, m.dimension + 1))
        assert all(
            v in (Label.TIGHT_LINEAR, Label.LOWER_QUADRATIC) for v in labels.values()
        )


# --- complementary class solves ---------------------------------------------------


CORPUS = sorted(p.name for p in MODELS.glob("*.json"))


def _zeroed_variants(m, zeroed):
    """The model itself and, with a nonempty counter set, its zeroed copy."""
    return [m] + ([zero_counters(m, zeroed)] if zeroed else [])


def _assert_matches_per_candidate_reference(m):
    for mec in mec_decomposition(m):
        witness, ranking = compute_maximal_solutions(m, mec)
        assert strict_labels(m, witness, ranking) == reference_strict_labels(m, mec), mec.mid


@pytest.mark.parametrize("name", CORPUS)
def test_pair_solves_match_per_candidate_reference_on_corpus(name):
    m = load_model(name)
    for c in range(m.dimension + 1):
        for model in _zeroed_variants(m, frozenset(range(1, c + 1))):
            _assert_matches_per_candidate_reference(model)


@given(random_models(max_states=3, max_dim=3, max_update=3), st.sets(st.integers(1, 3)))
@settings(max_examples=100, deadline=None)
def test_pair_solves_match_per_candidate_reference(m, zeroed):
    zeroed = frozenset(c for c in zeroed if c <= m.dimension)
    for model in _zeroed_variants(m, zeroed):
        _assert_matches_per_candidate_reference(model)


def _count_probes(monkeypatch, m, mec):
    """The probes of one class solve: (system, candidate label, feasible)."""
    probes = []
    solve = dichotomy.solve_feasibility

    def counting(problem):
        sol = solve(problem)
        system = "I" if problem.variables[0].startswith("x:") else "II"
        probes.append((system, problem.constraints[-1].label, sol is not None))
        return sol

    with monkeypatch.context() as patch:
        patch.setattr(dichotomy, "solve_feasibility", counting)
        compute_maximal_solutions(m, mec)
    return probes


def _assert_probe_budget(monkeypatch, m):
    """At most two probes and at most one infeasible probe per pair. The side
    probed first is System (I) with one counter and System (II) otherwise;
    every infeasible probe is a first probe, and every probe of the other
    system directly follows an infeasible first probe on the same pair."""
    first, second = ("I", "II") if m.dimension == 1 else ("II", "I")
    for mec in mec_decomposition(m):
        _, _, pairs = build_systems(m, mec)
        pair_of = {}
        for k, (row1, row2) in enumerate(pairs):
            pair_of[("I", row1.label)] = k
            pair_of[("II", row2.label)] = k
        probes = _count_probes(monkeypatch, m, mec)
        assert len(probes) <= 2 * len(pairs)
        infeasible = [pair_of[(system, label)] for system, label, ok in probes if not ok]
        assert len(infeasible) == len(set(infeasible)), "two infeasible probes on one pair"
        assert sum(system == second for system, _, _ in probes) == len(infeasible)
        assert all(system == first for system, _, ok in probes if not ok)
        for before, (system, label, _) in zip([None] + probes, probes):
            if system == second:
                assert before is not None and before[0] == first and not before[2]
                assert pair_of[before[:2]] == pair_of[(system, label)]


@pytest.mark.parametrize("name", CORPUS)
def test_probe_budget_on_corpus(monkeypatch, name):
    _assert_probe_budget(monkeypatch, load_model(name))


@given(random_models(max_states=4, max_dim=3, max_update=3))
@settings(max_examples=40, deadline=None)
def test_probe_budget(m):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_probe_budget(monkeypatch, m)


def test_pump_m1_probes_fewer_than_per_candidate(monkeypatch, pump):
    m1 = _mecs_by_id(pump)["M1"]
    probes = _count_probes(monkeypatch, pump, m1)
    per_candidate = sum(len(rows) for rows in candidate_rows(pump, m1))
    assert len(probes) < per_candidate == 11


def _assert_both_sides_infeasible_is_internal_error(monkeypatch, m, mec, first):
    """With counter 1's probes made infeasible, the class solve probes `first`
    system, then the other, and raises `InternalError` naming both rows."""
    solve = dichotomy.solve_feasibility
    probes = []

    def no_counter_1(problem):
        label = problem.constraints[-1].label
        probes.append(("I" if problem.variables[0].startswith("x:") else "II", label))
        return None if label == "counter:1" else solve(problem)

    monkeypatch.setattr(dichotomy, "solve_feasibility", no_counter_1)
    with pytest.raises(InternalError, match="neither counter:1 of the flow system nor counter:1"):
        compute_maximal_solutions(m, mec)
    second = "II" if first == "I" else "I"
    assert probes == [(first, "counter:1"), (second, "counter:1")]


def test_both_sides_of_a_pair_infeasible_is_internal_error(monkeypatch, pump):
    _assert_both_sides_infeasible_is_internal_error(
        monkeypatch, pump, _mecs_by_id(pump)["M1"], first="II"
    )


def test_both_sides_of_a_pair_infeasible_is_internal_error_one_counter(monkeypatch, dec_loop):
    _assert_both_sides_infeasible_is_internal_error(
        monkeypatch, dec_loop, _single_mec(dec_loop), first="I"
    )


# --- the probe order decides nothing -----------------------------------------------


def _pair_decisions(m, mec, flow_first=None):
    """The class solve of `mec` and its pair steps in call order: (pair rows'
    labels, decided by the ranking, witness). With `flow_first` set, every
    step probes in that order instead of the class's own."""
    steps = []
    with pytest.MonkeyPatch.context() as mp:
        if flow_first is not None:
            force_probe_order(mp, flow_first)
        step = dichotomy._pair_step

        def recording(p1, p2, pair, mid, order):
            ranked, w = step(p1, p2, pair, mid, order)
            steps.append((pair[0].label, pair[1].label, ranked, w))
            return ranked, w

        mp.setattr(dichotomy, "_pair_step", recording)
        witness, ranking = compute_maximal_solutions(m, mec)
    return repr((witness, ranking)), steps


def _assert_probe_order_decides_nothing(m):
    """Flow first and ranking first (the reference) decide every pair on the
    same side with the identical witness, and so does the class's own order."""
    for mec in mec_decomposition(m):
        reference = _pair_decisions(m, mec, flow_first=False)
        assert _pair_decisions(m, mec, flow_first=True) == reference, mec.mid
        assert _pair_decisions(m, mec) == reference, mec.mid


@pytest.mark.parametrize("name", CORPUS)
def test_probe_order_decides_nothing_on_corpus(name):
    m = load_model(name)
    for c in range(m.dimension + 1):
        for model in _zeroed_variants(m, frozenset(range(1, c + 1))):
            _assert_probe_order_decides_nothing(model)


# the gadgets the analyze-onedim benchmark runs: at most three edges, the
# least vertex as the pivot
BENCH_GADGETS = sorted(
    p.stem
    for p in (MODELS / "graphs").glob("*.json")
    if len(load_doc(f"graphs/{p.name}")["edges"]) <= 3
)


@pytest.mark.parametrize("graph", BENCH_GADGETS)
def test_probe_order_decides_nothing_on_gadgets(graph):
    doc = load_doc(f"graphs/{graph}.json")
    m = hamiltonian_reduction(doc, min(doc["vertices"]))
    for model in _zeroed_variants(m, frozenset({1})):
        _assert_probe_order_decides_nothing(model)


@given(random_models(max_states=3, max_dim=3, max_update=3), st.sets(st.integers(1, 3)))
@settings(max_examples=60, deadline=None)
def test_probe_order_decides_nothing(m, zeroed):
    zeroed = frozenset(c for c in zeroed if c <= m.dimension)
    for model in _zeroed_variants(m, zeroed):
        _assert_probe_order_decides_nothing(model)
