"""CLI tests: subcommands, report schemas, exit codes, attestation wiring."""

import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter as Tally
from fractions import Fraction
from pathlib import Path
from random import Random

import jsonschema
import pytest

import vass_asym
from conftest import HINT_DRAW
from oracles import solve_failures
from strategies import random_model_from_rng
from vass_asym import check, cli, dichotomy, graph, onedim, ratlp
from vass_asym.check import check_report
from vass_asym.cli import AttestationError, build_analysis, main
from vass_asym.dichotomy import Label, RankingFunction
from vass_asym.model import Counter, InternalError, model_digest, parse_vass, serialize_vass

MODELS = Path(__file__).resolve().parent.parent / "models"
SCHEMAS = Path(vass_asym.__file__).parent / "schemas"


def schema(name):
    return json.loads((SCHEMAS / f"{name}.schema.json").read_text())


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture
def non_dag_2d(tmp_path):
    """Two mutually reachable single-state classes (positive-probability
    detours both ways), two counters: out of scope for the DAG analysis."""
    doc = {
        "dimension": 2,
        "states": [
            {"name": "m1", "kind": "nondet"},
            {"name": "m2", "kind": "nondet"},
            {"name": "r1", "kind": "prob"},
            {"name": "r2", "kind": "prob"},
            {"name": "d", "kind": "nondet"},
        ],
        "transitions": [
            {"id": "l1", "from": "m1", "to": "m1", "update": [0, 0]},
            {"id": "g1", "from": "m1", "to": "r1", "update": [0, 0]},
            {"id": "r1a", "from": "r1", "to": "m2", "update": [0, 0], "prob": "1/2"},
            {"id": "r1b", "from": "r1", "to": "d", "update": [0, 0], "prob": "1/2"},
            {"id": "l2", "from": "m2", "to": "m2", "update": [0, 0]},
            {"id": "g2", "from": "m2", "to": "r2", "update": [0, 0]},
            {"id": "r2a", "from": "r2", "to": "m1", "update": [0, 0], "prob": "1/2"},
            {"id": "r2b", "from": "r2", "to": "d", "update": [0, 0], "prob": "1/2"},
            {"id": "ld", "from": "d", "to": "d", "update": [0, 0]},
        ],
    }
    path = tmp_path / "non_dag_2d.json"
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_walk_text(capsys):
    rc, out, err = run(capsys, "analyze", str(MODELS / "random_walk_1d.json"))
    assert rc == 0 and err == ""
    assert "TightQuadratic" in out
    assert "re-substitution checks passed" in out


def test_analyze_walk_json_report(capsys, walk):
    rc, out, _ = run(capsys, "analyze", str(MODELS / "random_walk_1d.json"), "--json")
    assert rc == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("analysis_report"))
    assert doc["model"]["digest"] == model_digest(walk)
    assert doc["dag_like"] and doc["types_complete"]
    assert doc["types"] == [{"classes": ["M1"], "weight": "1"}]
    flags = doc["inventory"]["M1"]
    assert (flags["increasing"], flags["bounded_zero"], flags["unbounded_zero"]) == (
        False,
        False,
        True,
    )
    assert flags["oscillation_transitions"] == ["t_down", "t_up"]
    by_measure = {
        k: {tuple(e["type"]): e for e in v} for k, v in doc["estimates"].items()
    }
    assert by_measure["L"][("M1",)]["label"] == "TightQuadratic"
    assert by_measure["L"][("M1",)]["exact"] is True
    assert by_measure["C:1"][("M1",)]["label"] == "TightLinear"
    assert by_measure["T:t_down"][("M1",)]["label"] == "TightQuadratic"
    # one-counter labels read the inventory: each class solved once, nothing zeroed
    assert [(s["class"], s["zeroed_counters"]) for s in doc["solves"]] == [("M1", [])]
    assert doc["attestation"]["exact_arithmetic"] is True
    assert doc["attestation"]["checks"] >= 3


def test_analyze_pump_selected_measure(capsys):
    rc, out, _ = run(
        capsys,
        "analyze",
        str(MODELS / "pump_transfer_3d.json"),
        "--measure",
        "C:3",
        "--json",
    )
    assert rc == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("analysis_report"))
    assert [c["id"] for c in doc["classes"]] == ["M1", "M2", "M3", "M4"]
    weights = {tuple(t["classes"]): t["weight"] for t in doc["types"]}
    assert len(weights) == 7
    assert weights[("M1", "M2")] == "1"
    assert weights[("M1", "M3")] == "1/2"
    assert weights[("M1", "M4")] == "1/2"
    assert all(weights[(mid,)] == "1" for mid in ("M1", "M2", "M3", "M4"))
    ests = {tuple(e["type"]): e for e in doc["estimates"]["C:3"]}
    assert list(doc["estimates"]) == ["C:3"]
    assert ests[("M1", "M2")]["label"] == "LowerQuadratic"
    assert not ests[("M1", "M2")]["beyond_quadratic_hint"]
    assert ests[("M1", "M3")]["label"] == "TightLinear"
    assert ests[("M1", "M4")]["label"] == "LowerQuadratic"
    assert ests[("M1", "M4")]["beyond_quadratic_hint"]
    assert doc["inventory"] is None  # behaviour inventories are one-counter only
    # the hints are read off the listed solves, so no estimate carries a witness
    assert all(e["witnesses"] == {} for e in ests.values())
    # the types' pipelines make 7 distinct solves: counter 2, pumped in M1, is
    # zeroed in every class after it
    assert [(s["class"], s["zeroed_counters"]) for s in doc["solves"]] == [
        ("M1", []), ("M2", []), ("M2", [2]), ("M3", []), ("M3", [2]), ("M4", []), ("M4", [2])
    ]


def test_analyze_rejects_bad_measures(capsys, tmp_path):
    model = str(MODELS / "random_walk_1d.json")
    assert run(capsys, "analyze", model, "--measure", "C:9")[0] == 1
    assert run(capsys, "analyze", model, "--measure", "T:nope")[0] == 1
    assert run(capsys, "analyze", model, "--measure", "bogus")[0] == 1
    assert run(capsys, "analyze", str(tmp_path / "missing.json"))[0] == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, "analyze", str(bad))[0] == 1


def test_analyze_non_dag_multicounter_is_out_of_scope(capsys, non_dag_2d):
    rc, _, err = run(capsys, "analyze", str(non_dag_2d), "--measure", "L")
    assert rc == 2
    assert "out of scope" in err


def test_analyze_non_dag_multicounter_exits_before_enumerating_types(capsys, tmp_path):
    from test_graph import _three_mutually_reachable_classes_model

    path = tmp_path / "three_classes_2d.json"
    path.write_text(json.dumps(serialize_vass(_three_mutually_reachable_classes_model())))
    t0 = time.monotonic()
    rc, out, err = run(capsys, "analyze", str(path), "--max-type-len", "40")
    elapsed = time.monotonic() - t0
    assert (rc, out) == (2, "")
    assert err == "out of scope: class graph has mutually reachable classes\n"
    assert elapsed < 5.0, f"took {elapsed:.1f}s: the 2^39 types were enumerated first"


@pytest.mark.parametrize("command", ["analyze", "types"])
def test_type_enumeration_budget_exits_2(capsys, tmp_path, command):
    from test_graph import _two_classes_around_a_hub_model

    path = tmp_path / "hub_1d.json"
    path.write_text(json.dumps(serialize_vass(_two_classes_around_a_hub_model())))
    t0 = time.monotonic()
    rc, out, err = run(capsys, command, str(path), "--max-type-len", "40")
    elapsed = time.monotonic() - t0
    assert (rc, out) == (2, "")
    assert err == "out of scope: more than 10000 types of length <= 40\n"
    assert elapsed < 5.0
    assert run(capsys, command, str(path), "--max-type-len", "5")[0] == 0


def test_analyze_non_dag_one_counter_still_classified(capsys, tmp_path, non_dag_2d):
    doc = json.loads(non_dag_2d.read_text())
    doc["dimension"] = 1
    for t in doc["transitions"]:
        t["update"] = [0]
    path = tmp_path / "non_dag_1d.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "analyze", str(path), "--measure", "L", "--json")
    assert rc == 0
    rep = json.loads(out)
    jsonschema.validate(rep, schema("analysis_report"))
    assert rep["dag_like"] is False and rep["types_complete"] is False
    assert [t["classes"] for t in rep["types"]][:3] == [["M1"], ["M2"], ["M3"]]


def test_analyze_output_file(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    rc, out, _ = run(
        capsys,
        "analyze",
        str(MODELS / "random_walk_1d.json"),
        "--json",
        "-o",
        str(out_file),
    )
    assert rc == 0 and out == ""
    jsonschema.validate(json.loads(out_file.read_text()), schema("analysis_report"))


def test_attestation_failure_exits_3(capsys, monkeypatch):
    # analyze re-checks the document it is about to print
    ser_flow = cli._ser_flow

    def tampered(w):
        doc = ser_flow(w)
        doc["flow"]["t_down"] = str(Fraction(doc["flow"]["t_down"]) + 1)
        return doc

    monkeypatch.setattr(cli, "_ser_flow", tampered)
    rc, out, err = run(capsys, "analyze", str(MODELS / "random_walk_1d.json"))
    assert (rc, out) == (3, "")
    assert err.startswith("attestation failure: ")
    assert "class M1 with [] zeroed flow: flow out of p not proportional on t_down" in err


def test_valid_but_not_maximal_solutions_fail_attestation(capsys, monkeypatch):
    # class M1 of the pump with its maximal flow but the all-zero ranking:
    # both solutions re-substitute, yet counters 1 and 3 are strict on
    # neither side, and the pipeline would read them as pumped
    pump = parse_vass((MODELS / "pump_transfer_3d.json").read_text())
    solve = dichotomy.compute_maximal_solutions
    patched = []

    def not_maximal(m, mec):
        witness, ranking = solve(m, mec)
        if mec.mid != "M1":
            return witness, ranking
        zero = RankingFunction(
            mec.mid,
            {c: Fraction(0) for c in ranking.y},
            {s: Fraction(0) for s in ranking.z},
            frozenset(),
            frozenset(),
        )
        failures = solve_failures(m, mec, witness, zero)
        assert failures and all(f.startswith("maximality: ") for f in failures)
        patched.append(mec.mid)
        return witness, zero

    monkeypatch.setattr(dichotomy, "compute_maximal_solutions", not_maximal)
    with pytest.raises(AttestationError, match="maximality: counter 1") as failed:
        build_analysis(pump, [Counter(1)])
    assert all(" maximality: " in f for f in str(failed.value).split("; "))
    rc, out, err = run(capsys, "analyze", str(MODELS / "pump_transfer_3d.json"))
    assert (rc, out) == (3, "")
    assert "attestation failure" in err and "maximality" in err
    assert patched


def test_label_not_read_off_its_pipeline_fails_attestation(monkeypatch):
    real = cli.classify_dag

    def relabeled(m, beta_mecs, measure, owner, solves):
        est, pipeline = real(m, beta_mecs, measure, owner, solves)
        if measure == Counter(1) and [mec.mid for mec in beta_mecs] == ["M1"]:
            return dataclasses.replace(est, label=Label.LOWER_QUADRATIC), pipeline
        return est, pipeline

    monkeypatch.setattr(cli, "classify_dag", relabeled)
    pump = parse_vass((MODELS / "pump_transfer_3d.json").read_text())
    with pytest.raises(AttestationError, match="C:1 along M1: label LowerQuadratic, but"):
        build_analysis(pump, [Counter(1)])


def test_dichotomy_violation_exits_3(capsys, monkeypatch):
    # neither side of any candidate pair can be made strict
    monkeypatch.setattr(dichotomy, "solve_feasibility", lambda problem: None)
    rc, out, err = run(capsys, "analyze", str(MODELS / "pump_transfer_3d.json"))
    assert (rc, out) == (3, "")
    assert err.startswith("internal error: dichotomy violated in M1")


def test_internal_error_exits_3(capsys, monkeypatch):
    def broken(*a, **k):
        raise InternalError("injected invariant failure")

    monkeypatch.setattr("vass_asym.cli.build_analysis", broken)
    rc, out, err = run(capsys, "analyze", str(MODELS / "random_walk_1d.json"))
    assert (rc, out) == (3, "")
    assert err == "internal error: injected invariant failure\n"


def test_bare_key_error_is_internal_error(capsys, monkeypatch):
    def broken(*a, **k):
        raise KeyError("lost")

    monkeypatch.setattr("vass_asym.cli.build_analysis", broken)
    rc, out, err = run(capsys, "analyze", str(MODELS / "random_walk_1d.json"))
    assert (rc, out) == (3, "")
    assert err == "internal error: 'lost'\n"


def test_analyze_under_python_O_prints_the_same_bytes():
    # the invariant checks are raises, not asserts, so -O removes none of them
    argv = ["-m", "vass_asym", "analyze", str(MODELS / "pump_transfer_3d.json"), "--json"]
    env = dict(os.environ, PYTHONPATH=str(Path(vass_asym.__file__).parent.parent))
    plain, optimized = (
        subprocess.run([sys.executable, *flags, *argv], capture_output=True, env=env, timeout=600)
        for flags in ([], ["-O"])
    )
    assert plain.returncode == optimized.returncode == 0, plain.stderr + optimized.stderr
    assert plain.stdout and plain.stdout == optimized.stdout


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _analyze_to_file(tmp_path, model, *argv):
    report = tmp_path / "report.json"
    assert main(["analyze", str(model), "--json", "-o", str(report), *argv]) == 0
    return report


def _entry(doc, measure, beta):
    return next(e for e in doc["estimates"][measure] if e["type"] == beta)


def _set_reach(doc, pair, key, state, value):
    entry = next(e for e in doc["reach"] if (e["from"], e["to"]) == pair)
    entry[key][state] = value


def _solve(doc, mid, zeroed=()):
    return next(s for s in doc["solves"] if s["class"] == mid and s["zeroed_counters"] == list(zeroed))


def _forge_pumping_flow(doc):
    # M3's flow is zero; a padded positive set would make L along M3 quadratic
    _solve(doc, "M3")["flow"]["positive_transitions"] = ["a_b"]
    _entry(doc, "L", ["M3"])["label"] = "LowerQuadratic"


def _drop_class_transition(doc):
    # without e_e in M3, T:e_e would be a transition in no class
    doc["classes"][2]["transitions"].remove("e_e")
    _entry(doc, "T:e_e", ["M3"]).update(label="UpperTypeLength", bound=1)


TAMPERS = {
    # claim kind: (corpus model or model document, tamper, start of the failure it must cause)
    "flow entry": (
        "random_walk_1d.json",
        lambda d: _solve(d, "M1")["flow"]["flow"].update(t_up="7"),
        "class M1 with [] zeroed flow: flow out of p not proportional",
    ),
    "positive set outside the class": (
        "pump_transfer_3d.json",
        _forge_pumping_flow,
        "class M3 with [] zeroed flow: positive_transitions claims ['a_b'], the witness gives []",
    ),
    "class transitions": (
        "pump_transfer_3d.json",
        _drop_class_transition,
        "class M3: transitions [], not the ['e_e'] between its states",
    ),
    "ranking entry": (
        "decreasing_loop.json",
        lambda d: _solve(d, "M1")["ranking"]["counter_coefficients"].update({"1": "-1"}),
        "class M1 with [] zeroed ranking: y(1) = -1 < 0",
    ),
    "maximality": (
        "random_walk_1d.json",
        lambda d: _solve(d, "M1").update(
            ranking={
                "counter_coefficients": {"1": "0"},
                "state_offsets": {"p": "0"},
                "strict_controlled_transitions": [],
                "strict_probabilistic_states": [],
            }
        ),
        "class M1 with [] zeroed maximality: counter 1: neither y(1) > 0 nor a positive effect",
    ),
    "reach value": (
        "pump_transfer_3d.json",
        lambda d: _set_reach(d, ("M1", "M3"), "values", "b", "1/3"),
        "reach M1->M3: chain equation fails at b: 1/3 != 1/2",
    ),
    "reach choice": (
        "pump_transfer_3d.json",
        lambda d: _set_reach(d, ("M1", "M3"), "choice", "a", "a_b"),
        "reach M1->M3: a cannot reach the target under the strategy but has value 1/2",
    ),
    "type weight": (
        "pump_transfer_3d.json",
        lambda d: d["types"][5].update(weight="1/3"),
        "type M1,M3: reported weight 1/3 != recomputed 1/2",
    ),
    "stationary weight": (
        "zero_cycle_2state.json",
        lambda d: d["zero_cycle_witness"]["stationary"].update(p="1/3", q="2/3"),
        "class M1 stationary: balance fails at p: inflow 2/3 != 1/3",
    ),
    "solve missing": (
        "pump_transfer_3d.json",
        lambda d: d["solves"].remove(_solve(d, "M2", [2])),
        "C:3 along M1,M2: label LowerQuadratic, but the report gives no label "
        "(no solve of class M2 with [2] zeroed)",
    ),
    "solve repeated": (
        "pump_transfer_3d.json",
        lambda d: d["solves"].append(_solve(d, "M2", [2])),
        "class M2 with [2] zeroed: solved twice",
    ),
    "one-counter solve missing": (
        "decreasing_loop.json",
        lambda d: d.update(solves=[]),
        "no solve of class M1 with [] zeroed",
    ),
    "label": (
        "pump_transfer_3d.json",
        lambda d: _entry(d, "C:3", ["M1", "M3"]).update(label="LowerQuadratic"),
        "C:3 along M1,M3: label LowerQuadratic, but the report gives TightLinear",
    ),
    "label without a pipeline": (
        "pump_transfer_3d.json",
        lambda d: d.update(solves=[]),
        "L along M1: label LowerQuadratic, but the report gives no label "
        "(no solve of class M1 with [] zeroed)",
    ),
    "label of a transition in no class": (
        "pump_transfer_3d.json",
        lambda d: _entry(d, "T:q_e", ["M1", "M3"]).update(bound=1),
        "T:q_e along M1,M3: label UpperTypeLength, but the report gives UpperTypeLength with bound 2",
    ),
    "label of a class off the type": (
        "pump_transfer_3d.json",
        lambda d: _entry(d, "T:c_c", ["M1", "M3"]).update(label="UpperLinear"),
        "T:c_c along M1,M3: label UpperLinear, but the report gives TightZero",
    ),
    "hint of a budget-limited pump": (
        "pump_transfer_3d.json",
        lambda d: _entry(d, "C:3", ["M1", "M2"]).update(beyond_quadratic_hint=True),
        "C:3 along M1,M2: beyond_quadratic_hint true, but the report gives false",
    ),
    "hint of a fluctuation-limited pump": (
        "pump_transfer_3d.json",
        lambda d: _entry(d, "C:3", ["M1", "M4"]).update(beyond_quadratic_hint=False),
        "C:3 along M1,M4: beyond_quadratic_hint false, but the report gives true",
    ),
    "hint of a one-counter estimate": (
        "random_walk_1d.json",
        lambda d: _entry(d, "L", ["M1"]).update(beyond_quadratic_hint=True),
        "L along M1: beyond_quadratic_hint true, but d = 1",
    ),
    "hint of a pump whose unzeroed flow uses a drain": (
        HINT_DRAW,
        lambda d: _entry(d, "T:t000", ["M2", "M1"]).update(beyond_quadratic_hint=False),
        "T:t000 along M2,M1: beyond_quadratic_hint false, but the report gives true",
    ),
    "hint without its unzeroed solve": (
        "pump_transfer_3d.json",
        lambda d: d["solves"].remove(_solve(d, "M4")),
        "C:3 along M1,M4: no solve of class M4 with [] zeroed for the hint",
    ),
    "estimate dropped": (
        "pump_transfer_3d.json",
        lambda d: d["estimates"]["L"].pop(),
        "L along M1,M4: 0 estimates, 1 expected",
    ),
    "estimate along an unlisted type": (
        "pump_transfer_3d.json",
        lambda d: d["estimates"]["L"].append({**_entry(d, "L", ["M2"]), "type": ["M2", "M2"]}),
        "L along M2,M2: 1 estimates, 0 expected",
    ),
    "estimate repeated": (
        "pump_transfer_3d.json",
        lambda d: d["estimates"]["L"].append(_entry(d, "L", ["M1"])),
        "L along M1: 2 estimates, 1 expected",
    ),
}


def test_check_passes_on_every_corpus_report(capsys, tmp_path):
    for path in sorted(MODELS.glob("*.json")):
        report = _analyze_to_file(tmp_path, path)
        rc, out, err = run(capsys, "check", str(path), str(report))
        checks = json.loads(report.read_text())["attestation"]["checks"]
        assert (rc, out, err) == (0, f"{checks} exact re-substitution checks passed\n", "")


@pytest.mark.parametrize("kind", list(TAMPERS))
def test_check_rejects_a_tampered_claim(capsys, tmp_path, kind):
    model, tamper, failure = TAMPERS[kind]
    path = MODELS / model if isinstance(model, str) else tmp_path / "model.json"
    if isinstance(model, dict):
        path.write_text(json.dumps(model))
    report = _analyze_to_file(tmp_path, path)
    doc = json.loads(report.read_text())
    tamper(doc)
    report.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "check", str(path), str(report))
    assert (rc, out) == (3, "")
    assert err.startswith("attestation failure: ") and err.endswith("\n")
    failures = err[len("attestation failure: ") : -1].split("; ")
    assert any(f.startswith(failure) for f in failures), failures


def test_check_exits_1_on_a_report_it_cannot_read(capsys, tmp_path):
    walk, pump = MODELS / "random_walk_1d.json", MODELS / "pump_transfer_3d.json"
    pump_doc = json.loads(_analyze_to_file(tmp_path, pump).read_text())
    report = _analyze_to_file(tmp_path, walk)
    doc = json.loads(report.read_text())
    # a report of another model, a report missing a key, a number outside the
    # rational grammar (even one Python reads as the right value), a class,
    # counter, state or transition that does not exist (named by a type, an
    # estimate, a class, a reach certificate or any field of a solve), a
    # counter key outside the schema's ASCII grammar (even one Python reads
    # as 1), a repeated counter, no JSON
    assert run(capsys, "check", str(MODELS / "decreasing_loop.json"), str(report))[0] == 1
    broken = tmp_path / "broken.json"
    (solve,) = doc["solves"]
    named_counter = {**solve, "ranking": {**solve["ranking"], "counter_coefficients": {"one": "1"}}}

    def pump_solve(k, solve):  # the pump's report with its k-th solve replaced
        solves = [*pump_doc["solves"]]
        solves[k] = solve
        return pump, json.dumps({**pump_doc, "solves": solves})

    first, k = pump_doc["solves"][0], pump_doc["solves"].index(_solve(pump_doc, "M2", [2]))
    for model, text in (
        (walk, json.dumps({k: v for k, v in doc.items() if k != "reach"})),
        *(
            (walk, json.dumps({**doc, "types": [{"classes": ["M1"], "weight": weight}]}))
            for weight in ("one", "0.5", "1e3", "1e0", "+1", " 1", "1_0", "1/2\n", "١")
        ),
        (walk, json.dumps({**doc, "types": [{"classes": ["M1", "M9"], "weight": "1"}]})),
        (walk, json.dumps({**doc, "estimates": {"L": [{**doc["estimates"]["L"][0], "type": ["M9"]}]}})),
        (walk, json.dumps({**doc, "solves": [named_counter]})),
        (walk, json.dumps({**doc, "solves": [{**solve, "zeroed_counters": [2]}]})),
        *(
            pump_solve(0, {**first, "ranking": {**first["ranking"], "counter_coefficients": {
                (key if c == "1" else c): v for c, v in first["ranking"]["counter_coefficients"].items()
            }}})
            for key in ("01", "١")
        ),
        pump_solve(k, {**pump_doc["solves"][k], "zeroed_counters": [2, 2]}),
        pump_solve(0, {**first, "flow": {**first["flow"], "positive_counters": [2, 9]}}),
        pump_solve(0, {**first, "flow": {**first["flow"], "flow": {**first["flow"]["flow"], "ghost": "0"}}}),
        pump_solve(0, {**first, "flow": {**first["flow"], "positive_transitions": ["ghost"]}}),
        *(
            pump_solve(0, {**first, "ranking": {**first["ranking"], key: value}})
            for key, value in (
                ("counter_coefficients", {**first["ranking"]["counter_coefficients"], "9": "0"}),
                ("state_offsets", {**first["ranking"]["state_offsets"], "zz": "0"}),
                ("strict_probabilistic_states", ["zz"]),
                ("strict_controlled_transitions", ["ghost"]),
            )
        ),
        (pump, json.dumps({**pump_doc, "classes": [{**c, "transitions": [*c["transitions"], "ghost"]} for c in pump_doc["classes"]]})),
        (pump, json.dumps({**pump_doc, "reach": [{**e, "values": {**e["values"], "zz": "0"}} for e in pump_doc["reach"]]})),
        (walk, json.dumps([doc])),
        (walk, "{not json"),
    ):
        broken.write_text(text)
        rc, out, err = run(capsys, "check", str(model), str(broken))
        assert (rc, out) == (1, "") and err.startswith("error: "), (text, err)


def test_check_exits_3_when_the_checker_fails(capsys, tmp_path, monkeypatch):
    walk = MODELS / "random_walk_1d.json"
    report = _analyze_to_file(tmp_path, walk)

    def broken(*args):
        raise TypeError("a fault of the checker")

    monkeypatch.setattr(check, "solve_failures", broken)
    rc, out, err = run(capsys, "check", str(walk), str(report))
    assert (rc, out) == (3, "")
    assert err == "internal error: the checker failed: TypeError: a fault of the checker\n"


def test_seeded_sweep_analyze_then_check(capsys, tmp_path):
    rng = Random(2024)
    checked = 0
    for i in range(18):
        m = random_model_from_rng(
            rng, n_states=rng.randint(1, 3), dim=1 + i % 3, max_update=2, strongly_connected=(i % 2 == 0)
        )
        path = tmp_path / f"model-{i}.json"
        path.write_text(json.dumps(serialize_vass(m)))
        report = tmp_path / f"report-{i}.json"
        rc, _, err = run(capsys, "analyze", str(path), "--json", "-o", str(report))
        if rc == 2:  # d >= 2 with mutually reachable classes
            continue
        assert rc == 0, err
        rc, out, err = run(capsys, "check", str(path), str(report))
        checks = json.loads(report.read_text())["attestation"]["checks"]
        assert (rc, out, err) == (0, f"{checks} exact re-substitution checks passed\n", "")
        checked += 1
    assert checked >= 12


def test_check_report_solves_nothing(monkeypatch):
    models = [parse_vass(path.read_text()) for path in sorted(MODELS.glob("*.json"))]
    docs = [build_analysis(m) for m in models]

    def refuse(*args, **kwargs):
        raise AssertionError("a solver ran during a check")

    for fn in (ratlp.solve_feasibility, ratlp.solve_linear_system, graph.max_reach_values):
        for name, module in list(sys.modules.items()):
            if name.startswith("vass_asym"):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, refuse)
    for m, doc in zip(models, docs):
        assert check_report(m, doc) == doc["attestation"]["checks"]


def test_analysis_without_a_class_solve_attests(capsys, tmp_path):
    # every estimate is decided by a use-count rule, so no type is walked
    pump = MODELS / "pump_transfer_3d.json"
    report = _analyze_to_file(tmp_path, pump, "--measure", "T:q_e")
    doc = json.loads(report.read_text())
    jsonschema.validate(doc, schema("analysis_report"))
    assert doc["solves"] == []
    assert {e["label"] for e in doc["estimates"]["T:q_e"]} == {"UpperTypeLength"}  # in no class
    assert doc["attestation"]["checks"] == 4 + 3 + 7 + 7  # classes, reach pairs, types, labels
    rc, out, err = run(capsys, "check", str(pump), str(report))
    assert (rc, out, err) == (0, "21 exact re-substitution checks passed\n", "")


def test_restricted_measure_keeps_its_hint(capsys, tmp_path):
    # T:f_f_up is pumped in M4 after M1 pumped counter 2; its hint reads M4's
    # solve with nothing zeroed, which the one-class type M4 lists
    pump = MODELS / "pump_transfer_3d.json"
    report = _analyze_to_file(tmp_path, pump, "--measure", "T:f_f_up")
    doc = json.loads(report.read_text())
    assert _entry(doc, "T:f_f_up", ["M1", "M4"])["beyond_quadratic_hint"]
    solved = [(s["class"], s["zeroed_counters"]) for s in doc["solves"]]
    assert solved == [("M1", []), ("M4", []), ("M4", [2])]
    rc, out, err = run(capsys, "check", str(pump), str(report))
    assert (rc, out, err) == (0, f"{doc['attestation']['checks']} exact re-substitution checks passed\n", "")


def _sweep_models(count):
    rng = Random(1789)
    return [
        random_model_from_rng(
            rng, n_states=rng.randint(1, 3), dim=1 + i % 3, max_update=2, strongly_connected=(i % 2 == 0)
        )
        for i in range(count)
    ]


def test_solves_lists_each_class_solve_once(monkeypatch):
    """`solves` has one entry per distinct (class, zeroed counters) solve the
    analysis made, by class order, then zeroed set."""
    made = []
    walk, solve_class = dichotomy.run_dag_pipeline, onedim.compute_maximal_solutions

    def walking(m, beta_mecs):
        pipeline = walk(m, beta_mecs)
        made.extend((step.mec_id, sorted(step.zeroed)) for step in pipeline)
        return pipeline

    def solving(m, mec, *args):
        made.append((mec.mid, []))
        return solve_class(m, mec, *args)

    monkeypatch.setattr(dichotomy, "run_dag_pipeline", walking)
    monkeypatch.setattr(onedim, "compute_maximal_solutions", solving)
    corpus = [(path.stem, parse_vass(path.read_text())) for path in sorted(MODELS.glob("*.json"))]
    analyzed = 0
    for name, m in corpus + [(f"sweep {i}", m) for i, m in enumerate(_sweep_models(16))]:
        made.clear()
        try:
            doc = build_analysis(m)
        except dichotomy.NotDagLike:
            continue
        order = [c["id"] for c in doc["classes"]]
        distinct = sorted({(mid, tuple(z)) for mid, z in made}, key=lambda k: (order.index(k[0]), k[1]))
        assert [(s["class"], tuple(s["zeroed_counters"])) for s in doc["solves"]] == distinct
        if name == "pump_transfer_3d":
            assert len(distinct) == 7 and len(made) > 7
        analyzed += 1
    assert analyzed >= 15


def _unrequired(shape, node, sch, at):
    """The keys the checker reads (`check._REPORT`'s shapes) that the schema
    node does not require."""
    while "$ref" in node:
        node = sch["$defs"][node["$ref"].rsplit("/", 1)[1]]
    if isinstance(shape, tuple):  # null or the entry
        (node,) = [n for n in node["oneOf"] if n.get("type") != "null"]
        return _unrequired(shape[0], node, sch, at)
    if isinstance(shape, list):
        return _unrequired(shape[0], node["items"], sch, f"{at}[]")
    if not isinstance(shape, dict):
        return []
    if str in shape or int in shape:  # a map
        return _unrequired(next(iter(shape.values())), node["additionalProperties"], sch, f"{at}.*")
    missing = [f"{at}.{key}" for key in shape if key not in node.get("required", [])]
    for key, item in shape.items():
        missing += _unrequired(item, node["properties"][key], sch, f"{at}.{key}")
    return missing


def test_the_checker_reads_only_what_the_schema_requires():
    # every object the checker reads, down to a solve's flow and ranking,
    # has the keys it reads among the schema's required ones
    sch = schema("analysis_report")
    assert _unrequired(check._REPORT, sch, sch, "report") == []
    assert set(check._SOLVE) == set(sch["properties"]["solves"]["items"]["required"])


def test_reach_values_solved_once_per_pair(monkeypatch, pump):
    calls = Tally()
    solve = graph.max_reach_values

    def counting(m, targets, sinks):
        calls[(targets, sinks)] += 1
        return solve(m, targets, sinks)

    monkeypatch.setattr(graph, "max_reach_values", counting)
    doc = build_analysis(pump)
    assert len(doc["reach"]) == len(calls) == 3
    assert set(calls.values()) == {1}


# ---------------------------------------------------------------------------
# model schema
# ---------------------------------------------------------------------------


def test_model_schema_matches_corpus():
    sch = schema("model")
    for path in sorted(MODELS.glob("*.json")):
        jsonschema.validate(json.loads(path.read_text()), sch)


def _patterns(node):
    """Every regular expression in a schema: `pattern` values and
    `patternProperties` keys."""
    if isinstance(node, list):
        return [p for item in node for p in _patterns(item)]
    if not isinstance(node, dict):
        return []
    found = [node["pattern"]] if isinstance(node.get("pattern"), str) else []
    found += list(node.get("patternProperties", {}))
    return found + [p for value in node.values() for p in _patterns(value)]


def test_schema_patterns_reject_a_trailing_newline():
    # Python's `$` also matches before a final newline, ECMA 262's does not;
    # an end-of-input lookahead means the same in both
    patterns = [p for name in ("model", "analysis_report", "sim_report") for p in _patterns(schema(name))]
    assert len(patterns) == 8
    assert [p for p in patterns if p.endswith("$")] == []
    for pattern in patterns:
        sample = next(s for s in ("1/2", "0" * 64, "M1", "12") if re.search(pattern, s))
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(sample + "\n", {"type": "string", "pattern": pattern})
    doc = json.loads((MODELS / "random_walk_1d.json").read_text())
    doc["transitions"][0]["prob"] = "1/2\n"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, schema("model"))
    for name in ("analysis_report", "sim_report"):
        digest = schema(name)["properties"]["model"]["properties"]["digest"]
        jsonschema.validate("0" * 64, digest)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate("0" * 64 + "\n", digest)


def test_model_schema_rejects_malformed():
    sch = schema("model")
    good = json.loads((MODELS / "random_walk_1d.json").read_text())
    for mutate in (
        lambda d: d.pop("dimension"),
        lambda d: d["states"][0].pop("kind"),
        lambda d: d["states"][0].update(kind="other"),
        lambda d: d["transitions"][0].update(prob="0.5"),
        lambda d: d["transitions"][0].pop("update"),
        lambda d: d.update(extra=1),
    ):
        doc = json.loads(json.dumps(good))
        mutate(doc)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, sch)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_json_report(capsys, walk):
    rc, out, _ = run(
        capsys,
        "simulate",
        str(MODELS / "random_walk_1d.json"),
        "--n",
        "4,8",
        "--runs",
        "30",
        "--theta",
        "2",
        "--json",
    )
    assert rc == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("sim_report"))
    assert doc["model"]["digest"] == model_digest(walk)
    assert doc["n_list"] == [4, 8]
    assert doc["caps"] == {"4": 64, "8": 256}
    assert doc["strategy"] is None
    for g in doc["groups"]:
        assert g["realized_type"] == ["M1"]
        assert g["runs"] == 30
        assert g["low_sample"] is True


def test_simulate_csv(capsys):
    rc, out, _ = run(
        capsys,
        "simulate",
        str(MODELS / "random_walk_1d.json"),
        "--n",
        "2,4",
        "--runs",
        "20",
        "--max-steps",
        "100",
        "--csv",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == (
        "n,realized_type,runs,terminated,truncated,low_sample,"
        "median_steps,median_peak_1,cap"
    )
    assert len(lines) == 3
    assert all(line.endswith(",100") for line in lines[1:])


def test_simulate_strategy_file(capsys, tmp_path):
    strat = tmp_path / "strategy.json"
    strat.write_text(json.dumps({"p": "t_dec"}))
    rc, out, _ = run(
        capsys,
        "simulate",
        str(MODELS / "decreasing_loop.json"),
        "--n",
        "3",
        "--runs",
        "5",
        "--strategy",
        str(strat),
        "--json",
    )
    assert rc == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("sim_report"))
    assert doc["strategy"] == {"p": "t_dec"}
    (g,) = doc["groups"]
    assert g["terminated"] == 5
    assert g["median_steps"] == 4.0
    assert g["median_peaks"] == [3.0]


def test_simulate_witness_strategy(capsys):
    rc, out, _ = run(
        capsys,
        "simulate",
        str(MODELS / "increasing_loop.json"),
        "--n",
        "2",
        "--runs",
        "4",
        "--strategy",
        "witness:M1",
        "--max-steps",
        "50",
        "--json",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["strategy"] == {"p": {"t_inc": "1"}}
    (g,) = doc["groups"]
    assert g["truncated"] == 4 and g["median_steps"] is None
    assert run(capsys, "simulate", str(MODELS / "increasing_loop.json"),
               "--n", "2", "--runs", "1", "--strategy", "witness:M7")[0] == 1


def test_simulate_strategy_file_may_leave_out_unreached_states(capsys, tmp_path):
    """Every entry is checked on load; a missing one fails only where a run
    reaches its state."""
    argv = ["simulate", str(MODELS / "pump_transfer_3d.json"), "--n", "3", "--runs", "2",
            "--max-steps", "50", "--strategy"]
    assert run(capsys, *argv, _write(tmp_path, "s.json", {"a": "a_q", "e": "e_e"}))[0] == 0
    rc, out, err = run(capsys, *argv, _write(tmp_path, "t.json", {"a": "a_c"}))
    assert (rc, out) == (1, "") and "reached controlled state 'c' with no strategy entry" in err


@pytest.mark.parametrize("n, theta", [("2", "inf"), ("2", "nan"), ("2,3", "1000")])
def test_simulate_rejects_a_cap_that_cannot_be_computed(capsys, n, theta):
    rc, out, err = run(
        capsys, "simulate", str(MODELS / "random_walk_1d.json"), "--n", n, "--runs", "2", "--theta", theta
    )
    assert (rc, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_simulate_rejects_bad_arguments(capsys):
    model = str(MODELS / "random_walk_1d.json")
    assert run(capsys, "simulate", model, "--n", "4,3", "--runs", "5")[0] == 1
    assert run(capsys, "simulate", model, "--n", "x", "--runs", "5")[0] == 1
    assert run(capsys, "simulate", model, "--n", "4", "--runs", "5",
               "--init-state", "zz")[0] == 1
    for runs in ("0", "-3"):
        assert run(capsys, "simulate", model, "--n", "4", "--runs", runs)[0] == 1
    # seeds past the 64-bit key word would alias others' streams
    for seed in ("-1", str(2**64)):
        assert run(capsys, "simulate", model, "--n", "4", "--runs", "5", f"--seed={seed}")[0] == 1
    rc, out, _ = run(capsys, "simulate", model, "--n", "4", "--runs", "5", f"--seed={2**64 - 1}", "--json")
    assert rc == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("sim_report"))
    for seed in (-1, 2**64):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc | {"seed": seed}, schema("sim_report"))
    # uncovered controlled state entered -> validation error, not a crash
    assert run(capsys, "simulate", str(MODELS / "decreasing_loop.json"),
               "--n", "3", "--runs", "2")[0] == 1


# ---------------------------------------------------------------------------
# structure subcommands
# ---------------------------------------------------------------------------


def test_mecs_subcommand(capsys):
    rc, out, _ = run(capsys, "mecs", str(MODELS / "pump_transfer_3d.json"))
    assert rc == 0
    assert "M1: states={a,b}" in out
    assert "DAG-like" in out
    rc, out, _ = run(capsys, "mecs", str(MODELS / "pump_transfer_3d.json"), "--json")
    doc = json.loads(out)
    assert [c["id"] for c in doc["classes"]] == ["M1", "M2", "M3", "M4"]
    assert doc["dag_like"] is True


def test_types_subcommand(capsys):
    rc, out, _ = run(
        capsys, "types", str(MODELS / "pump_transfer_3d.json"), "--json"
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["complete"] is True
    assert len(doc["types"]) == 7
    rc, out, _ = run(
        capsys,
        "types",
        str(MODELS / "pump_transfer_3d.json"),
        "--max-type-len",
        "1",
        "--json",
    )
    doc = json.loads(out)
    assert doc["complete"] is False and len(doc["types"]) == 4
    rc, out, err = run(capsys, "types", str(MODELS / "pump_transfer_3d.json"), "--max-type-len", "0")
    assert (rc, out, err) == (1, "", "error: max_len must be >= 1\n")


@pytest.mark.parametrize("path", sorted(MODELS.glob("*.json")), ids=lambda p: p.stem)
@pytest.mark.parametrize("option", [[], ["--max-type-len", "1"], ["--max-type-len", "2"]])
def test_types_complete_is_analyze_types_complete(capsys, path, option):
    rc, out, _ = run(capsys, "types", str(path), "--json", *option)
    assert rc == 0
    rc, report, _ = run(capsys, "analyze", str(path), "--json", "--measure", "L", *option)
    assert rc == 0
    assert json.loads(out)["complete"] == json.loads(report)["types_complete"]


def test_energy_subcommand(capsys):
    rc, out, _ = run(capsys, "energy", str(MODELS / "zero_cycle_2state.json"))
    assert rc == 0 and out.startswith("Safe")
    assert "component: {p,q}" in out
    rc, out, _ = run(capsys, "energy", str(MODELS / "random_walk_1d.json"), "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["status"] == "Unsafe" and doc["strategy"] is None


def test_energy_rejects_a_negative_brute_bound(capsys):
    rc, out, err = run(capsys, "energy", str(MODELS / "increasing_loop.json"), "--brute-bound", "-1")
    assert (rc, out) == (1, "")
    assert err == "error: the enumeration bound must be >= 0, got -1\n"


# ---------------------------------------------------------------------------
# gen-hamiltonian
# ---------------------------------------------------------------------------


def test_gen_hamiltonian_emits_valid_model(capsys, tmp_path):
    rc, out, _ = run(capsys, "gen-hamiltonian", str(MODELS / "graphs" / "k3.json"), "a")
    assert rc == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("model"))
    m = parse_vass(doc)
    assert m.dimension == 1
    for t in m.transitions:
        assert t.update == ((-2,) if t.source == "a" else (1,))
    out_file = tmp_path / "gadget.json"
    rc, _, _ = run(
        capsys,
        "gen-hamiltonian",
        str(MODELS / "graphs" / "k3.json"),
        "b",
        "-o",
        str(out_file),
    )
    assert rc == 0
    parse_vass(out_file.read_text())


def test_gen_hamiltonian_rejects_bad_input(capsys, tmp_path):
    rc, _, err = run(
        capsys, "gen-hamiltonian", str(MODELS / "graphs" / "k3.json"), "zz"
    )
    assert rc == 1 and err
    assert run(capsys, "gen-hamiltonian", str(tmp_path / "nope.json"), "a")[0] == 1


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------


def test_usage_errors_exit_1(capsys):
    assert run(capsys)[0] == 1
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys, "analyze")[0] == 1
    assert run(capsys, "simulate", str(MODELS / "random_walk_1d.json"))[0] == 1


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _walk_with_prob(prob):
    def argv(tmp_path):
        doc = json.loads((MODELS / "random_walk_1d.json").read_text())
        doc["transitions"][0]["prob"] = prob
        return ["analyze", _write(tmp_path, "model.json", doc)]
    return argv


def _strategy_file(doc, model="decreasing_loop.json"):
    def argv(tmp_path):
        strat = _write(tmp_path, "strategy.json", doc)
        return ["simulate", str(MODELS / model), "--n", "3", "--runs", "2", "--strategy", strat]
    return argv


def _strategy(value):
    return _strategy_file({"p": {"t_dec": value}})


def _pump_strategy(at_c):
    """Runs leave `a` by `a_q` and never reach `c`, whose entry is `at_c`."""
    return _strategy_file({"a": "a_q", "e": "e_e", "c": at_c}, "pump_transfer_3d.json")


def _graph(vertices, edges):
    return lambda tmp_path: [
        "gen-hamiltonian", _write(tmp_path, "graph.json", {"vertices": vertices, "edges": edges}), "a"
    ]


WALK = str(MODELS / "random_walk_1d.json")
K3_EDGES = [["a", "b"], ["b", "c"], ["a", "c"]]


@pytest.mark.parametrize(
    "argv, named",
    [
        pytest.param(_walk_with_prob("1/0"), "'1/0' has a zero denominator", id="prob-1/0"),
        pytest.param(_walk_with_prob("1/2\n"), "got '1/2\\n'", id="prob-trailing-newline"),
        pytest.param(_walk_with_prob("1" * 5000), "transitions[0]: a rational of 5000 characters",
                     id="prob-5000-digits"),
        pytest.param(lambda _: ["simulate", WALK, "--n", "0,4", "--runs", "2", "--theta", "-1"],
                     "no step cap at n = 0", id="theta<0-at-n=0"),
        pytest.param(lambda _: ["simulate", WALK, "--n=-1,4", "--runs", "2", "--theta", "0.5"],
                     "n must be >= 0", id="n<0-with-theta"),
        pytest.param(lambda _: ["simulate", WALK, "--n", "4", "--runs", "2", "--seed=-1"],
                     "seed must be in 0..2**64-1", id="seed<0"),
        pytest.param(lambda _: ["simulate", WALK, "--n", "4", "--runs", "2", "--seed", str(2**64)],
                     "seed must be in 0..2**64-1", id="seed>=2**64"),
        pytest.param(_strategy(True), "strategy for 'p', transition 't_dec'", id="strategy-true"),
        pytest.param(_strategy(0.1), "strategy for 'p', transition 't_dec'", id="strategy-float"),
        pytest.param(_strategy("1/0"), "strategy for 'p', transition 't_dec'", id="strategy-1/0"),
        pytest.param(_strategy([1]), "strategy for 'p', transition 't_dec'", id="strategy-list"),
        pytest.param(_strategy_file({"p": {"t_dec": "1"}, "q": "x"}), "unknown states ['q']",
                     id="strategy-extra-state"),
        pytest.param(_strategy_file({"zz": "x"}), "unknown states ['zz']", id="strategy-only-unknown"),
        pytest.param(_strategy_file({"p": "t_up"}, "random_walk_1d.json"),
                     "probabilistic states ['p']", id="strategy-probabilistic-state"),
        pytest.param(_pump_strategy({"a_q": "1/3"}), "strategy at 'c' uses transitions ['a_q']",
                     id="strategy-unreached-bad-distribution"),
        pytest.param(_pump_strategy("a_q"), "strategy at 'c' uses transitions ['a_q']",
                     id="strategy-unreached-bad-choice"),
        pytest.param(lambda _: ["analyze", WALK, "--measure", "T:"], "needs a transition id",
                     id="measure-empty-transition"),
        pytest.param(lambda _: ["analyze", WALK, "--measure", "T:zz"], "unknown transition 'zz'",
                     id="measure-unknown-transition"),
        pytest.param(_graph("abc", K3_EDGES), "must be lists", id="graph-vertex-string"),
        pytest.param(_graph(["a", "b", "c"], ["ab"] + K3_EDGES[1:]), "two vertex names",
                     id="graph-edge-string"),
        pytest.param(_graph(["a", "b", "c"], [[["a"], "b"]] + K3_EDGES[1:]), "two vertex names",
                     id="graph-edge-nested"),
        pytest.param(lambda _: ["analyze", WALK, "--json", "--text"], "not allowed with",
                     id="analyze-json-text"),
        pytest.param(lambda _: ["simulate", WALK, "--n", "4", "--runs", "2", "--csv", "--json"],
                     "not allowed with", id="simulate-csv-json"),
    ],
)
def test_bad_input_exits_1_with_one_error_line(capsys, tmp_path, argv, named):
    rc, out, err = run(capsys, *argv(tmp_path))
    assert (rc, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err, err
    assert "Traceback" not in err


def test_importing_the_cli_loads_numpy():
    # the benchmark's calibration loops import numpy inside a SIGPROF handler;
    # that is safe only if numpy is already fully imported when the handler
    # first fires, so importing the CLI must import numpy eagerly (a lazily
    # loaded numpy sits in sys.modules before its core is imported)
    code = (
        "import sys, vass_asym.cli; "
        "print('numpy' in sys.modules, any(m in sys.modules for m in ('numpy._core.multiarray', 'numpy.core.multiarray')))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(vass_asym.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout) == (0, "True True\n"), done.stderr


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # only a simulation that draws needs a generator; loading numpy.random
    # on import would add its load time to every command's start-up
    code = "import sys, vass_asym.cli; print('numpy.random' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(vass_asym.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


STRUCTURE = (
    "mec_decomposition",
    "is_dag_like",
    "enumerate_types",
    "mec_quotient_edges",
    "transition_to_mec",
)


@pytest.mark.parametrize("path", sorted(MODELS.glob("*.json")), ids=lambda p: p.stem)
def test_build_analysis_derives_the_class_structure_once(monkeypatch, path):
    """One analysis derives the analyzed model's classes, DAG-likeness, types,
    class graph and transition owners once, whatever the dimension. Calls on
    other models (the sub-models a one-counter class solve decomposes) do
    not count; `transition_to_mec` counts on the model's own class list."""
    m = parse_vass(path.read_text())
    mecs = graph.mec_decomposition(m)
    calls = Tally()

    def counting(name, fn):
        def wrapper(first, *args, **kwargs):
            if first is m or (name == "transition_to_mec" and list(first) == mecs):
                calls[name] += 1
            return fn(first, *args, **kwargs)

        return wrapper

    for name in STRUCTURE:
        original = getattr(graph, name)
        wrapped = counting(name, original)
        # every module that imported the function by name calls its own binding
        for mod in [v for k, v in sys.modules.items() if k.startswith("vass_asym")]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, wrapped)
    build_analysis(m)
    assert calls == Tally(dict.fromkeys(STRUCTURE, 1))


CORPUS_SHA256 = {  # stdout of `analyze --json` and, with one counter, `energy --json`
    ("analyze", "decreasing_loop"): "1384564b0e37a21aa75f132aa10feee2f8b9adfaab4c62268de5b239d12623d9",
    ("energy", "decreasing_loop"): "da34fee41823a62a2a2cde59808f5c7e4e25c1d8b61522f39ca39008a3713395",
    ("analyze", "increasing_loop"): "e3456cf8ab679097587b6dfaeea3b2a025826542dc3594c75d6798e1918ad9e0",
    ("energy", "increasing_loop"): "9316a9ab7e8b5bad33f01a713586593590b180b4a23882382a99f25e9daa63ad",
    ("analyze", "pump_transfer_3d"): "8e8938bf49e3e953da31083025e952aaf66b5713fdb693a650053bf56ab4ba14",
    ("analyze", "random_walk_1d"): "649962b9bb9a53246da498bdc107b23708542de756c02758e903f14e35661c6a",
    ("energy", "random_walk_1d"): "da34fee41823a62a2a2cde59808f5c7e4e25c1d8b61522f39ca39008a3713395",
    ("analyze", "zero_cycle_2state"): "67950cdd73824d021e08d0e54ca0f5f031560c50d7921d598db0a6dca4ed256a",
    ("energy", "zero_cycle_2state"): "258aa4755a2d6830c35d25509e910edf5a26d0b02de7e600e555c56319ef136b",
}


def test_corpus_reports_are_pinned(capsys):
    """The corpus reports, byte for byte. A change that moves a witness or a
    label on purpose updates these digests and says so where it is described."""
    got = {}
    for path in sorted(MODELS.glob("*.json")):
        one_counter = json.loads(path.read_text())["dimension"] == 1
        kinds = ("analyze", "energy") if one_counter else ("analyze",)
        for kind in kinds:
            rc, out, err = run(capsys, kind, str(path), "--json")
            assert (rc, err) == (0, "")
            got[(kind, path.stem)] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert got == CORPUS_SHA256
