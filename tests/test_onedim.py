"""Behaviour inventory, the growth case table, strategy-enumeration oracle,
energy safety, and the Hamiltonicity gadget — exact expectations on the
bundled models plus randomized agreement with brute force."""

import json
import random
from collections import Counter as Tally
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MODELS, load_doc, load_model
import oracles
from oracles import (
    classify_bscc,
    counter_effect,
    energy_by_inventory,
    flags_tuple,
    inventory_from_bruteforce,
    is_hamiltonian,
    pivot_safe_bruteforce,
)
from strategies import random_model_from_rng, random_models, two_part_models
from vass_asym import cli, dichotomy, onedim
from vass_asym.check import AttestationError, check_report
from vass_asym.dichotomy import Label
from vass_asym.graph import mec_decomposition, transition_to_mec
from vass_asym.model import (
    NONDET,
    PROB,
    Counter,
    InternalError,
    State,
    Termination,
    Transition,
    TransitionCount,
    ValidationError,
    VassMdp,
    measure_key,
    parse_measure,
)
from vass_asym.onedim import (
    BsccClass,
    ClassInventory,
    MecFlags,
    NotABottomScc,
    TooManyStrategies,
    VertexNotInGraph,
    bottom_sccs,
    bounded_zero_witness,
    bscc_analysis,
    brute_force_classify,
    compute_inventory,
    energy_safe,
    hamiltonian_reduction,
    labels_from_inventory,
)

# ---------------------------------------------------------------------------
# chain-level analysis
# ---------------------------------------------------------------------------


def test_bottom_sccs_pump(pump):
    assert bottom_sccs(pump) == [
        frozenset({"c"}),
        frozenset({"e"}),
        frozenset({"f"}),
    ]


def test_classify_bscc_four_behaviours(walk, dec_loop, inc_loop, zero_cycle):
    assert classify_bscc(walk, {}, {"p"}) is BsccClass.UNBOUNDED_ZERO
    assert classify_bscc(dec_loop, {"p": "t_dec"}, {"p"}) is BsccClass.DECREASING
    assert classify_bscc(inc_loop, {"p": "t_inc"}, {"p"}) is BsccClass.INCREASING
    assert (
        classify_bscc(zero_cycle, {"p": "t_pq", "q": "t_qp"}, {"p", "q"})
        is BsccClass.BOUNDED_ZERO
    )


def test_classify_bscc_rejects_non_bottom_set(zero_cycle):
    with pytest.raises(NotABottomScc):
        classify_bscc(zero_cycle, {"p": "t_pq", "q": "t_qp"}, {"p"})


def test_bscc_analysis_walk_exact(walk):
    a = bscc_analysis(walk, {}, {"p"})
    assert a.stationary == {"p": Fraction(1)}
    assert a.drift == 0
    assert a.transitions == {"t_down", "t_up"}
    # the walk's report carries no zero-cycle witness; one put in is re-checked
    doc = cli.build_analysis(walk)
    assert doc["zero_cycle_witness"] is None
    doc["zero_cycle_witness"] = {"class": "M1", "strategy": {}, "component": ["p"], "stationary": {"p": "1"}}
    assert check_report(walk, doc) == doc["attestation"]["checks"] + 1
    doc["zero_cycle_witness"]["stationary"]["p"] = "1/2"
    with pytest.raises(AttestationError, match="^class M1 stationary: weights do not sum to 1$"):
        check_report(walk, doc)


def test_bscc_analysis_zero_cycle_stationary(zero_cycle):
    a = bscc_analysis(zero_cycle, {"p": "t_pq", "q": "t_qp"}, {"p", "q"})
    assert a.stationary == {"p": Fraction(1, 2), "q": Fraction(1, 2)}
    assert a.drift == 0


# ---------------------------------------------------------------------------
# the per-class inventory on the bundled models
# ---------------------------------------------------------------------------


def test_walk_inventory(walk):
    inv = compute_inventory(walk)
    f = inv.flags["M1"]
    assert flags_tuple(f) == (
        False,
        False,
        True,
        frozenset(),
        frozenset({"t_down", "t_up"}),
    )
    assert f.uz_component == frozenset({"t_down", "t_up"})
    assert f.uz_defect_transition in {"t_down", "t_up"}


def test_walk_detectors(walk):
    inv = compute_inventory(walk)
    assert not inv.any_increasing
    assert bounded_zero_witness(walk, inv) is None
    f = inv.flags["M1"]
    assert f.unbounded_zero and f.mec_id == "M1"
    assert f.uz_component == frozenset({"t_down", "t_up"})
    assert f.flow.x["t_down"] == f.flow.x["t_up"] >= 1


def test_dec_loop_inventory_all_decreasing(dec_loop):
    inv = compute_inventory(dec_loop)
    assert flags_tuple(inv.flags["M1"]) == (
        False,
        False,
        False,
        frozenset(),
        frozenset(),
    )
    assert inv.all_decreasing
    assert inv.flags["M1"].uz_component is None


def test_inc_loop_inventory(inc_loop):
    inv = compute_inventory(inc_loop)
    assert inv.any_increasing
    f = inv.flags["M1"]
    assert f.increasing and f.mec_id == "M1"
    assert counter_effect(inc_loop, f.flow.x, 1) >= 1


def test_zero_cycle_inventory_and_witness(zero_cycle):
    inv = compute_inventory(zero_cycle)
    assert flags_tuple(inv.flags["M1"]) == (
        False,
        True,
        False,
        frozenset({"t_pq", "t_qp"}),
        frozenset(),
    )
    w = bounded_zero_witness(zero_cycle, inv)
    assert w is not None and w.mec_id == "M1"
    assert w.component_states == frozenset({"p", "q"})
    assert w.strategy == {"p": "t_pq", "q": "t_qp"}
    assert w.stationary == {"p": Fraction(1, 2), "q": Fraction(1, 2)}
    assert classify_bscc(zero_cycle, w.strategy, w.component_states) is (
        BsccClass.BOUNDED_ZERO
    )


def _zero_loop_and_exchange(back_to):
    """d = 1: s0 has a 0 self-loop and a -2 move to s1, which returns by +2
    or takes -1 to `back_to`; both states controlled. The least-id choices
    {s0: t000, s1: t002} make {s0} bottom, not the whole zero-cycle component."""
    return VassMdp(
        1,
        [State("s0", NONDET), State("s1", NONDET)],
        [
            Transition("t000", "s0", (0,), "s0"),
            Transition("t001", "s0", (-2,), "s1"),
            Transition("t002", "s1", (2,), "s0"),
            Transition("t003", "s1", (-1,), back_to),
        ],
    )


def _criterion_7_model(index):
    rng = random.Random(77)
    for i in range(index + 1):
        m = random_model_from_rng(rng, n_states=rng.randint(2, 4), dim=1, max_update=2, strongly_connected=(i % 2 == 0))
    return m


@pytest.mark.parametrize("model", ["s1", "s0", "criterion-7 #39"])
def test_zero_cycle_witness_reports_the_bottom_component_it_realizes(model):
    m = _criterion_7_model(39) if model.startswith("criterion") else _zero_loop_and_exchange(model)
    if model.startswith("criterion"):
        assert m.transitions == _zero_loop_and_exchange("s0").transitions
    w = bounded_zero_witness(m, compute_inventory(m))
    assert w.strategy == {"s0": "t000", "s1": "t002"}
    assert w.component_states == frozenset({"s0"}) and w.component_transitions == frozenset({"t000"})
    assert w.stationary == {"s0": Fraction(1)}
    ans = energy_safe(m)
    assert (ans.status, ans.strategy, ans.bscc_states) == ("Safe", w.strategy, frozenset({"s0"}))
    doc = cli.build_analysis(m, measures=None, max_type_len=4)  # re-checks the witness
    assert doc["estimates"]
    assert doc["zero_cycle_witness"] == {
        "class": w.mec_id,
        "strategy": w.strategy,
        "component": ["s0"],
        "stationary": {"s0": "1"},
    }


def test_dimension_guards(pump):
    for fn in (
        compute_inventory,
        brute_force_classify,
        energy_safe,
    ):
        with pytest.raises(ValueError):
            fn(pump)


# ---------------------------------------------------------------------------
# the growth case table on the bundled models
# ---------------------------------------------------------------------------


def _single_class_labels(m):
    """Every measure's estimate along the model's one type, the single class
    M1, read off the class's behaviour inventory."""
    mecs = mec_decomposition(m)
    assert [mec.mid for mec in mecs] == ["M1"]
    inventory = compute_inventory(m, mecs)
    owner = transition_to_mec(mecs)
    measures = [Termination(), Counter(1)] + [TransitionCount(t.tid) for t in m.transitions]
    return {
        measure_key(ms): labels_from_inventory(inventory, ms, ("M1",), owner)
        for ms in measures
    }


def test_walk_report(walk):
    doc = cli.build_analysis(walk)
    assert doc["dag_like"] and doc["types_complete"]
    assert [t["classes"] for t in doc["types"]] == [["M1"]]
    r = _single_class_labels(walk)
    term = r["L"]
    assert term.label is Label.TIGHT_QUADRATIC and term.exact
    assert term.tag == "zero-oscillation-quadratic"
    ctr = r["C:1"]
    assert ctr.label is Label.TIGHT_LINEAR and ctr.exact
    for tid in ("t_down", "t_up"):
        est = r[f"T:{tid}"]
        assert est.label is Label.TIGHT_QUADRATIC and est.exact
        assert est.tag == "zero-oscillation-transition"


def test_dec_loop_report(dec_loop):
    r = _single_class_labels(dec_loop)
    assert r["L"].label is Label.TIGHT_LINEAR
    assert r["L"].exact
    assert r["C:1"].label is Label.TIGHT_LINEAR
    t = r["T:t_dec"]
    assert t.label is Label.UPPER_LINEAR and t.exact  # all classes decreasing


def test_inc_loop_report(inc_loop):
    r = _single_class_labels(inc_loop)
    assert r["L"].label is Label.UNBOUNDED
    assert r["C:1"].label is Label.UNBOUNDED
    assert r["C:1"].exact
    t = r["T:t_inc"]
    assert t.label is Label.UNBOUNDED and t.tag == "pumping-before-or-at-class"


def test_zero_cycle_report(zero_cycle):
    r = _single_class_labels(zero_cycle)
    term = r["L"]
    assert term.label is Label.UNBOUNDED and term.exact
    assert term.tag == "increasing-or-zero-cycle-class"
    assert r["C:1"].label is Label.TIGHT_LINEAR
    assert r["C:1"].exact
    t = r["T:t_pq"]
    assert t.label is Label.UNBOUNDED and t.tag == "zero-cycle-component-transition"
    assert t.exact


def _hand_inventory():
    return ClassInventory(
        flags={
            "A": MecFlags(
                "A", False, False, True, frozenset(), frozenset({"x"})
            ),
            "B": MecFlags("B", True, None, None, frozenset(), frozenset()),
        }
    )


def test_case_table_mixed_regime():
    inv = _hand_inventory()
    owner = {"x": "A", "y": "B"}
    # oscillating class next to an increasing one: bound kept, tightness lost
    term = labels_from_inventory(inv, Termination(), ("A",), owner)
    assert term.label is Label.LOWER_QUADRATIC and not term.exact
    assert "upper bound" in term.note
    ctr = labels_from_inventory(inv, Counter(1), ("A",), owner)
    assert ctr.label is Label.TIGHT_LINEAR and not ctr.exact
    ctr2 = labels_from_inventory(inv, Counter(1), ("A", "B"), owner)
    assert ctr2.label is Label.UNBOUNDED and not ctr2.exact
    # transition cases
    t0 = labels_from_inventory(inv, TransitionCount("ghost"), ("A", "B"), owner)
    assert t0.label is Label.UPPER_TYPE_LENGTH and t0.bound == 2 and t0.exact
    t1 = labels_from_inventory(inv, TransitionCount("x"), ("B",), owner)
    assert t1.label is Label.TIGHT_ZERO and t1.exact
    t2 = labels_from_inventory(inv, TransitionCount("y"), ("A", "B"), owner)
    assert t2.label is Label.UNBOUNDED and t2.exact
    t4 = labels_from_inventory(inv, TransitionCount("x"), ("A", "B"), owner)
    assert t4.label is Label.LOWER_QUADRATIC and not t4.exact


def test_case_table_input_validation():
    inv = _hand_inventory()
    with pytest.raises(ValueError):
        labels_from_inventory(inv, Termination(), ("Z",), {})
    with pytest.raises(ValueError):
        labels_from_inventory(inv, Termination(), (), {})
    with pytest.raises(ValueError):
        labels_from_inventory(inv, Counter(2), ("A",), {})


# ---------------------------------------------------------------------------
# strategy-enumeration oracle
# ---------------------------------------------------------------------------


def test_brute_force_walk(walk):
    brute = brute_force_classify(walk)
    assert brute == {((), frozenset({"p"})): BsccClass.UNBOUNDED_ZERO}


def test_brute_force_bound(walk):
    with pytest.raises(TooManyStrategies):
        brute_force_classify(walk, bound=0)


# ---------------------------------------------------------------------------
# energy safety
# ---------------------------------------------------------------------------


def test_energy_answers(walk, dec_loop, inc_loop, zero_cycle):
    assert energy_safe(walk).status == "Unsafe"
    assert energy_safe(dec_loop).status == "Unsafe"
    safe = energy_safe(zero_cycle)
    assert safe.status == "Safe"
    assert safe.bscc_states == frozenset({"p", "q"})
    assert classify_bscc(zero_cycle, safe.strategy, safe.bscc_states) is (
        BsccClass.BOUNDED_ZERO
    )
    pumped = energy_safe(inc_loop)
    assert pumped.status == "Safe" and pumped.bscc_states == frozenset({"p"})
    assert energy_safe(inc_loop, brute_bound=0).status == "UnknownNPRegime"


def test_energy_unsafe_despite_positive_drift():
    # positive mean but a losing cycle in the only bottom component
    m = VassMdp(
        1,
        [State("p", NONDET), State("r", PROB)],
        [
            Transition("t_pr", "p", (0,), "r", None),
            Transition("t_minus", "r", (-1,), "p", Fraction(1, 2)),
            Transition("t_plus", "r", (3,), "p", Fraction(1, 2)),
        ],
    )
    assert compute_inventory(m).any_increasing
    ans = energy_safe(m)
    assert ans.status == "Unsafe" and "negative cycle" in ans.note


def test_inventory_finding_an_increasing_class_is_internal_error(monkeypatch, inc_loop):
    # counter pairs that wrongly call every class non-increasing: the
    # inventory's class solve then probes the counter pair itself and finds
    # the pumping flow, and the two must agree
    def zero_ranking(m, mec):
        _, p2, _ = dichotomy.build_systems(m, mec)
        return True, dict.fromkeys(p2.variables, Fraction(0))

    monkeypatch.setattr(onedim, "counter_pair", zero_ranking)
    with pytest.raises(InternalError, match="increasing class its counter pairs did not"):
        energy_safe(inc_loop)


def test_each_class_solved_once_per_operation(monkeypatch):
    """`analyze` reads every class's flags and witnesses off one inventory:
    exactly one pair of maximal solutions per class. `energy` solves no
    class in full once one increases (the increasing loop, the k3 gadget),
    and each class once otherwise."""
    calls: Tally = Tally()
    solve = dichotomy.compute_maximal_solutions

    def counting(m, mec, *args, **kwargs):
        calls[mec.mid] += 1
        return solve(m, mec, *args, **kwargs)

    for module in (dichotomy, onedim, cli):
        monkeypatch.setattr(module, "compute_maximal_solutions", counting)

    models = [  # (model, whether some class increases)
        (load_model("random_walk_1d.json"), False),
        (load_model("decreasing_loop.json"), False),
        (load_model("increasing_loop.json"), True),
        (load_model("zero_cycle_2state.json"), False),
        (hamiltonian_reduction(load_doc("graphs/k3.json"), "a"), True),
    ]
    for m, increasing in models:
        once = Tally(mec.mid for mec in mec_decomposition(m))
        calls.clear()
        doc = cli.build_analysis(m)
        assert calls == once == Tally(c["id"] for c in doc["classes"])
        calls.clear()
        energy_safe(m)
        assert calls == (Tally() if increasing else once)


def test_energy_counter_pair_probes_the_flow_first(monkeypatch, inc_loop, dec_loop):
    """A one-counter counter pair probes the pumping flow first: the
    increasing loop is decided by one LP before strategy enumeration, the
    decreasing loop's ranking takes a second LP after the infeasible flow."""
    lps = []
    solve, enumerate_ = dichotomy.solve_feasibility, onedim._energy_by_enumeration
    at_enumeration = []

    def counting(problem):
        lps.append(problem.constraints[-1].label)
        return solve(problem)

    def enumerating(m, brute_bound):
        at_enumeration.append(len(lps))
        return enumerate_(m, brute_bound)

    monkeypatch.setattr(dichotomy, "solve_feasibility", counting)
    monkeypatch.setattr(onedim, "_energy_by_enumeration", enumerating)
    assert energy_safe(inc_loop).status == "Safe"
    assert at_enumeration == [1] and lps == ["counter:1"]

    lps.clear()
    ranked, _ = dichotomy.counter_pair(dec_loop, mec_decomposition(dec_loop)[0])
    assert ranked and lps == ["counter:1", "counter:1"]


@pytest.mark.parametrize(
    "name",
    ["random_walk_1d", "decreasing_loop", "increasing_loop", "zero_cycle_2state"],
)
def test_one_counter_reports_do_not_depend_on_probe_order(name):
    """`analyze` and `energy` documents are byte-identical with every pair
    probed ranking first (the reference) and in the class's own order."""
    m = load_model(f"{name}.json")

    def documents():
        analysis = json.dumps(cli.build_analysis(m), indent=2)
        ans = energy_safe(m)
        return analysis, repr((ans.status, ans.strategy, ans.bscc_states, ans.note))

    with pytest.MonkeyPatch.context() as mp:
        oracles.force_probe_order(mp, flow_first=False)
        reference = documents()
    assert documents() == reference


def _traced_energy(decide, m):
    """`decide(m)`, the class of each LP it solves in call order (read off
    the LP's flow or state-potential variables), and the inventories it
    built."""
    owner = {}
    for mec in mec_decomposition(m):
        owner.update({f"z:{s}": mec.mid for s in mec.states})
        owner.update({f"x:{t}": mec.mid for t in mec.transitions})
    lps, inventories = [], []
    solve, build = dichotomy.solve_feasibility, onedim.compute_inventory

    def recording(problem):
        (mid,) = {owner[v] for v in problem.variables if v in owner}
        lps.append(mid)
        return solve(problem)

    def keeping(*args, **kwargs):
        inventories.append(build(*args, **kwargs))
        return inventories[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dichotomy, "solve_feasibility", recording)
        for module in (onedim, oracles):
            mp.setattr(module, "compute_inventory", keeping)
        answer = decide(m)
    return answer, lps, inventories


def _assert_energy_matches_reference(m):
    """`energy_safe` gives the full-inventory reference's answer, solving no
    more LPs: as many without an increasing class (each class solve starts
    from its counter pair's ranking), else at most two per class up to and
    including the first increasing one, and none past it."""
    got, lps, _ = _traced_energy(energy_safe, m)
    want, ref_lps, (inventory,) = _traced_energy(energy_by_inventory, m)
    assert (got.status, got.strategy, got.bscc_states, got.note) == (
        want.status,
        want.strategy,
        want.bscc_states,
        want.note,
    )
    assert len(lps) <= len(ref_lps)
    order = list(inventory.flags)
    first = next((k for k, mid in enumerate(order) if inventory.flags[mid].increasing), None)
    if first is None:
        assert len(lps) == len(ref_lps)
        return
    per_class = Tally(lps)
    assert all(per_class[mid] <= 2 for mid in order[: first + 1]), per_class
    assert not any(per_class[mid] for mid in order[first + 1 :]), per_class


@pytest.mark.parametrize(
    "name",
    ["random_walk_1d", "decreasing_loop", "increasing_loop", "zero_cycle_2state"],
)
def test_energy_matches_inventory_reference_on_corpus(name):
    _assert_energy_matches_reference(load_model(f"{name}.json"))


@pytest.mark.parametrize("graph", sorted(p.stem for p in (MODELS / "graphs").glob("*.json")))
def test_energy_matches_inventory_reference_on_gadgets(graph):
    doc = load_doc(f"graphs/{graph}.json")
    for pivot in doc["vertices"]:
        _assert_energy_matches_reference(hamiltonian_reduction(doc, pivot))


@settings(max_examples=60, deadline=None)
@given(st.one_of(random_models(max_states=4, max_dim=1, max_update=3), two_part_models()))
def test_energy_matches_inventory_reference_property(m):
    _assert_energy_matches_reference(m)


# ---------------------------------------------------------------------------
# Hamiltonicity gadget
# ---------------------------------------------------------------------------

K3 = {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["a", "c"], ["b", "c"]]}
PATH3 = {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]}
STAR4 = {
    "vertices": ["hub", "u", "v", "w"],
    "edges": [["hub", "u"], ["hub", "v"], ["hub", "w"]],
}
CYCLE4 = {
    "vertices": ["a", "b", "c", "d"],
    "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]],
}


def test_gadget_shape():
    m = hamiltonian_reduction(K3, "a")
    assert m.dimension == 1
    assert sorted(s.name for s in m.states) == ["a", "b", "c"]
    assert all(s.kind == NONDET for s in m.states)
    assert len(m.transitions) == 6
    for t in m.transitions:
        assert t.update == ((-2,) if t.source == "a" else (1,))


def test_gadget_matches_independent_checker():
    for graph in (K3, PATH3, STAR4, CYCLE4):
        expect = is_hamiltonian(graph["vertices"], graph["edges"])
        for pivot in graph["vertices"]:
            m = hamiltonian_reduction(graph, pivot)
            assert pivot_safe_bruteforce(m, pivot) == expect, (graph, pivot)


def test_gadget_validation():
    with pytest.raises(VertexNotInGraph):
        hamiltonian_reduction(K3, "z")
    with pytest.raises(ValueError):
        hamiltonian_reduction(
            {"vertices": ["a", "b"], "edges": [["a", "a"]]}, "a"
        )
    with pytest.raises(ValueError):
        hamiltonian_reduction(
            {"vertices": ["a", "b"], "edges": [["a", "zz"]]}, "a"
        )
    with pytest.raises(ValidationError):  # isolated vertex has no move
        hamiltonian_reduction(
            {"vertices": ["a", "b", "c"], "edges": [["a", "b"]]}, "a"
        )
    for bad in (
        {"vertices": "abc", "edges": K3["edges"]},
        {"vertices": ["a", "b", "c"], "edges": ["ab", ["b", "c"], ["a", "c"]]},
        {"vertices": ["a", "b", "c"], "edges": [[["a"], "b"], ["b", "c"], ["a", "c"]]},
        {"vertices": ["a", "b", "c"], "edges": [["a", "b", "c"]]},
        {"vertices": ["a", "b", "c"], "edges": {"a": "b"}},
    ):
        with pytest.raises(ValueError):
            hamiltonian_reduction(bad, "a")


# ---------------------------------------------------------------------------
# randomized agreement with brute force
# ---------------------------------------------------------------------------


def test_random_corpus_matches_bruteforce():
    rng = random.Random(20260816)
    checked = 0
    for i in range(40):
        m = random_model_from_rng(
            rng,
            n_states=rng.randint(2, 4),
            dim=1,
            max_update=2,
            strongly_connected=bool(i % 2),
        )
        mecs = mec_decomposition(m)
        brute = brute_force_classify(m)
        oracle = inventory_from_bruteforce(m, mecs, brute)
        inv = compute_inventory(m, mecs)
        for mec in mecs:
            assert flags_tuple(inv.flags[mec.mid]) == flags_tuple(
                oracle.flags[mec.mid]
            ), (i, mec.mid)
        # the report's entries, recomputed from the oracle inventory, must
        # agree bit for bit
        doc = cli.build_analysis(m)
        owner = transition_to_mec(mecs)
        for mkey, entries in doc["estimates"].items():
            for e in entries:
                beta = tuple(e["type"])
                want = labels_from_inventory(oracle, parse_measure(mkey), beta, owner)
                assert e == cli._ser_estimate(beta, want), (i, mkey, beta)
        checked += 1
    assert checked == 40


@settings(max_examples=40, deadline=None)
@given(random_models(max_states=3, max_dim=1, max_update=3))
def test_detector_flags_match_bruteforce_property(m):
    mecs = mec_decomposition(m)
    oracle = inventory_from_bruteforce(m, mecs)
    inv = compute_inventory(m, mecs)
    for mec in mecs:
        assert flags_tuple(inv.flags[mec.mid]) == flags_tuple(oracle.flags[mec.mid])
