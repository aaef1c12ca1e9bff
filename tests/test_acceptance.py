"""Acceptance suite: nine end-to-end criteria at their stated tolerances.

Each test is one criterion and ends by printing a single PASS line with the
realized numbers (visible with `pytest -s`; the test name itself is the
pass/fail line under `pytest -v`). Tolerances and run counts are the stated
ones — tests must not be weakened to pass.
"""

import json
import time
from fractions import Fraction
from pathlib import Path
from random import Random

from oracles import (
    flags_tuple,
    inventory_from_bruteforce,
    is_hamiltonian,
    pivot_safe_bruteforce,
    solve_failures,
)
from strategies import random_model_from_rng

from vass_asym.check import check_report
from vass_asym.cli import build_analysis
from vass_asym.dichotomy import compute_maximal_solutions
from vass_asym.graph import enumerate_types, mec_decomposition, transition_to_mec
from vass_asym.model import parse_measure, parse_vass
from vass_asym.onedim import hamiltonian_reduction, labels_from_inventory
from vass_asym.sim import estimate_tails, fit_exponent, simulate_many

MODELS = Path(__file__).resolve().parent.parent / "models"
F = Fraction


def test_criterion_1_walk_symbolic_classification(walk):
    t0 = time.monotonic()
    doc = build_analysis(walk)
    elapsed = time.monotonic() - t0
    again = build_analysis(walk)
    assert json.dumps(doc) == json.dumps(again), "report must be deterministic"

    ests = {k: {tuple(e["type"]): e for e in v} for k, v in doc["estimates"].items()}
    assert ests["L"][("M1",)]["label"] == "TightQuadratic"
    assert ests["L"][("M1",)]["exact"] is True
    assert ests["C:1"][("M1",)]["label"] == "TightLinear"
    assert ests["C:1"][("M1",)]["exact"] is True
    for tid in ("t_down", "t_up"):  # every loop transition in the quadratic regime
        assert ests[f"T:{tid}"][("M1",)]["label"] == "TightQuadratic"
    flags = doc["inventory"]["M1"]
    assert flags["unbounded_zero"] is True
    assert flags["witnesses"]["oscillating_component"]  # the witness itself
    assert flags["witnesses"]["oscillation_defect_transition"] in ("t_down", "t_up")
    assert elapsed < 1.0, f"analysis took {elapsed:.3f}s, budget is 1s"
    print(
        f"PASS criterion 1: L=TightQuadratic C:1=TightLinear T=quadratic, "
        f"oscillation witness attached, deterministic, {elapsed * 1000:.0f}ms"
    )


def test_criterion_2_walk_termination_percentages(walk):
    t0 = time.monotonic()
    runs = 20_000
    batch1 = simulate_many(walk, 1, runs, seed=2026, max_steps=1001)
    p1 = sum(1 for st in batch1 if st.terminated and st.steps <= 1000) / runs
    batch10 = simulate_many(walk, 10, runs, seed=2026, max_steps=10_001)
    p2 = sum(1 for st in batch10 if st.terminated and st.steps <= 1000) / runs
    p3 = sum(1 for st in batch10 if st.terminated and st.steps <= 10_000) / runs
    elapsed = time.monotonic() - t0
    assert abs(p1 - 0.95) <= 0.02, f"N=1 within 1000: {p1}"
    assert abs(p2 - 0.75) <= 0.03, f"N=10 within 1000: {p2}"
    assert abs(p3 - 0.90) <= 0.03, f"N=10 within 10000: {p3}"
    assert elapsed < 120, f"took {elapsed:.0f}s, budget is 2min"
    print(
        f"PASS criterion 2: p(N=1,<=1e3)={p1:.4f} p(N=10,<=1e3)={p2:.4f} "
        f"p(N=10,<=1e4)={p3:.4f} over {runs} runs each, {elapsed:.1f}s"
    )


def test_criterion_3_walk_median_exponent(walk):
    t0 = time.monotonic()
    ns = [8, 16, 32, 64, 128, 256, 512]
    medians = []
    for n in ns:
        rep = estimate_tails(walk, [n], 2000, seed=3, max_steps=32 * n * n)
        (group,) = rep.groups[n]
        assert group.median_steps is not None, f"median undefined at n={n}"
        medians.append(group.median_steps)
    slope = fit_exponent(ns, medians)
    elapsed = time.monotonic() - t0
    assert 1.7 <= slope <= 2.3, f"slope {slope} outside [1.7, 2.3]"
    assert elapsed < 300, f"took {elapsed:.0f}s, budget is 5min"
    print(
        f"PASS criterion 3: slope={slope:.3f} medians={medians} "
        f"(2000 runs/n, cap 32n^2), {elapsed:.0f}s"
    )


def test_criterion_4_pump_structure_exact(pump):
    mecs = mec_decomposition(pump)
    assert [mec.mid for mec in mecs] == ["M1", "M2", "M3", "M4"]
    types, _ = enumerate_types(pump, 4, mecs)
    assert len(types) == 7
    weights = {ts.mecs: ts.weight for ts in types}
    for mid in ("M1", "M2", "M3", "M4"):
        assert weights[(mid,)] == F(1)
    assert weights[("M1", "M2")] == F(1)
    assert weights[("M1", "M3")] == F(1, 2)
    assert weights[("M1", "M4")] == F(1, 2)
    assert set(weights) == {
        ("M1",), ("M2",), ("M3",), ("M4",),
        ("M1", "M2"), ("M1", "M3"), ("M1", "M4"),
    }
    print(
        "PASS criterion 4: 4 classes, 7 types, weights "
        "{1,1,1,1,1,1/2,1/2} exact"
    )


def test_criterion_5_pump_counter3_per_type_and_exponent(pump):
    doc = build_analysis(pump, measures=None, max_type_len=4)
    ests = {tuple(e["type"]): e for e in doc["estimates"]["C:3"]}
    assert ests[("M1", "M2")]["label"] == "LowerQuadratic"
    assert ests[("M1", "M2")]["beyond_quadratic_hint"] is False
    assert ests[("M1", "M3")]["label"] == "TightLinear"
    assert ests[("M1", "M4")]["label"] == "LowerQuadratic"
    assert ests[("M1", "M4")]["beyond_quadratic_hint"] is True

    # pumping strategy: stay in the first class ~n^2 rounds, then route out;
    # condition on runs that realized (M1, M4)
    def strategy(n):
        leave = F(1, n * n)
        return {"a": {"a_b": 1 - leave, "a_q": leave}, "e": "e_e"}

    ns = [8, 16, 32, 64]
    meds = []
    sizes = []
    for n in ns:
        rep = estimate_tails(
            pump, [n], 40, seed=5, strategy=strategy(n), max_steps=8 * n**4
        )
        group = rep.group(n, ("M1", "M4"))
        assert group is not None and group.runs >= 5, f"too few (M1,M4) runs at n={n}"
        sizes.append(group.runs)
        meds.append(group.median_peaks[2])
    slope = fit_exponent(ns, meds)
    assert slope > 3.0, f"counter-3 exponent {slope} not above 3.0"
    print(
        f"PASS criterion 5: per-type C:3 labels match, simulated exponent "
        f"{slope:.2f} > 3.0 (group sizes {sizes})"
    )


def test_criterion_6_dichotomy_property_suite():
    rng = Random(66)
    models = 0
    pairs = 0
    while models < 100:
        m = random_model_from_rng(
            rng,
            n_states=rng.randint(2, 5),
            dim=rng.randint(1, 2),
            max_update=3,
            strongly_connected=True,
        )
        models += 1
        for mec in mec_decomposition(m):
            w, r = compute_maximal_solutions(m, mec)
            violations = solve_failures(m, mec, w, r)
            assert violations == [], (
                f"dichotomy violated on model #{models} class {mec.mid}"
            )
            pairs += 1
    print(f"PASS criterion 6: dichotomy verified for {pairs} maximal pairs on {models} models")


def test_criterion_7_detectors_and_labels_match_bruteforce():
    rng = Random(77)
    checked_models = 0
    checked_labels = 0
    while checked_models < 200:
        m = random_model_from_rng(
            rng,
            n_states=rng.randint(2, 4),
            dim=1,
            max_update=2,
            strongly_connected=(checked_models % 2 == 0),
        )
        doc = build_analysis(m)
        mecs = mec_decomposition(m)
        oracle = inventory_from_bruteforce(m, mecs)
        for mid, f in doc["inventory"].items():  # the flags the labels were read off
            got = (
                f["increasing"],
                f["bounded_zero"],
                f["unbounded_zero"],
                frozenset(f["zero_cycle_transitions"]),
                frozenset(f["oscillation_transitions"]),
            )
            assert got == flags_tuple(oracle.flags[mid]), (
                f"detector flags differ from brute force on model #{checked_models} {mid}"
            )
        owner = transition_to_mec(mecs)
        for mkey, entries in doc["estimates"].items():
            measure = parse_measure(mkey)
            for e in entries:
                beta = tuple(e["type"])
                expected = labels_from_inventory(oracle, measure, beta, owner)
                assert (e["label"], e["exact"], e["tag"], e["bound"]) == (
                    expected.label.value,
                    expected.exact,
                    expected.tag,
                    expected.bound,
                ), f"labels differ on model #{checked_models} {mkey} {beta}"
                checked_labels += 1
        checked_models += 1
    print(
        f"PASS criterion 7: detector flags and {checked_labels} labels match "
        f"brute force on {checked_models} one-counter models"
    )


def test_criterion_8_hamiltonicity_gadget_soundness():
    graph_files = sorted((MODELS / "graphs").glob("*.json"))
    assert len(graph_files) >= 10
    agree = 0
    for path in graph_files:
        doc = json.loads(path.read_text())
        vertices = doc["vertices"]
        edges = [tuple(e) for e in doc["edges"]]
        assert 3 <= len(vertices) <= 8
        expected = is_hamiltonian(vertices, edges)
        for pivot in vertices:
            m = hamiltonian_reduction(doc, pivot)
            assert pivot_safe_bruteforce(m, pivot) == expected, (
                f"gadget answer differs from permutation oracle: {path.name} pivot {pivot}"
            )
            agree += 1
    print(
        f"PASS criterion 8: gadget decision equals Hamiltonicity oracle on "
        f"{agree} (graph, pivot) pairs across {len(graph_files)} graphs"
    )


def test_criterion_9_every_witness_resubstitutes_exactly():
    total_checks = 0
    reports = 0

    def attested(m):
        # analyze attests its own document; the checker gets the same count
        # from the serialized report alone
        nonlocal total_checks, reports
        doc = build_analysis(m)  # raises AttestationError on any failure
        checks = doc["attestation"]["checks"]
        assert check_report(m, json.loads(json.dumps(doc))) == checks
        total_checks += checks
        reports += 1

    for name in (
        "random_walk_1d.json",
        "pump_transfer_3d.json",
        "decreasing_loop.json",
        "increasing_loop.json",
        "zero_cycle_2state.json",
    ):
        attested(parse_vass((MODELS / name).read_text()))

    rng = Random(99)
    for i in range(20):
        m = random_model_from_rng(
            rng,
            n_states=rng.randint(2, 4),
            dim=1,
            max_update=2,
            strongly_connected=(i % 2 == 0),
        )
        attested(m)
    for _ in range(5):
        m = random_model_from_rng(
            rng, n_states=rng.randint(2, 4), dim=2, max_update=2, strongly_connected=True
        )
        attested(m)

    assert total_checks >= 200
    print(
        f"PASS criterion 9: {total_checks} exact re-substitution checks over "
        f"{reports} reports (flows, rankings, stationary distributions, reach values)"
    )
