import json
from fractions import Fraction

import pytest
from hypothesis import given, settings

from oracles import Configuration, initial_configuration
from vass_asym.model import (
    Counter,
    IncompleteStrategy,
    SchemaError,
    Termination,
    TransitionCount,
    ValidationError,
    apply_md_strategy,
    canonical_json,
    measure_key,
    model_digest,
    parse_measure,
    parse_vass,
    serialize_vass,
    zero_counters,
)
from conftest import load_doc
from strategies import random_models


def test_parse_walk(walk):
    assert walk.dimension == 1
    assert walk.kind("p") == "prob"
    assert [t.tid for t in walk.out("p")] == ["t_down", "t_up"]
    assert walk.transition("t_up").prob == Fraction(1, 2)


def test_transitions_sorted_by_id(pump):
    tids = [t.tid for t in pump.transitions]
    assert tids == sorted(tids)


@pytest.mark.parametrize(
    "mutate, error",
    [
        (lambda d: d.__setitem__("dimension", 0), SchemaError),
        (lambda d: d.__setitem__("dimension", 1.5), SchemaError),
        (lambda d: d.__setitem__("extra", 1), SchemaError),
        (lambda d: d["states"][0].__setitem__("kind", "chance"), SchemaError),
        (lambda d: d["transitions"][0].__setitem__("prob", 0.5), SchemaError),
        (lambda d: d["transitions"][0].__setitem__("prob", "0.5"), SchemaError),
        (lambda d: d["transitions"][0].__setitem__("update", [True]), SchemaError),
        (lambda d: d["transitions"][0].pop("id"), SchemaError),
        (lambda d: d["transitions"][0].__setitem__("prob", "2/3"), ValidationError),
        (lambda d: d["transitions"][0].__setitem__("update", [1, 1]), ValidationError),
        (lambda d: d["transitions"][0].__setitem__("to", "ghost"), ValidationError),
        (lambda d: d["states"].append({"name": "p", "kind": "prob"}), ValidationError),
        (lambda d: d["states"].append({"name": "lonely", "kind": "nondet"}), ValidationError),
    ],
)
def test_parse_rejections(mutate, error):
    doc = load_doc("random_walk_1d.json")
    mutate(doc)
    with pytest.raises(error):
        parse_vass(json.dumps(doc))


def test_not_json_is_schema_error():
    with pytest.raises(SchemaError):
        parse_vass("{nope")


def test_prob_must_sum_to_one():
    doc = load_doc("random_walk_1d.json")
    doc["transitions"][0]["prob"] = "1/3"
    with pytest.raises(ValidationError, match="sum"):
        parse_vass(json.dumps(doc))


def test_prob_on_controlled_state_rejected():
    doc = load_doc("decreasing_loop.json")
    doc["transitions"][0]["prob"] = "1"
    with pytest.raises(ValidationError):
        parse_vass(json.dumps(doc))


def test_duplicate_transition_id_rejected():
    doc = load_doc("zero_cycle_2state.json")
    doc["transitions"][1]["id"] = doc["transitions"][0]["id"]
    with pytest.raises(ValidationError, match="duplicate"):
        parse_vass(json.dumps(doc))


def test_roundtrip_and_digest_stability(pump):
    doc = serialize_vass(pump)
    again = parse_vass(json.dumps(doc))
    assert serialize_vass(again) == doc
    assert model_digest(again) == model_digest(pump)
    assert canonical_json(again) == canonical_json(pump)


def test_arbitrary_precision_updates():
    big = 10**30
    doc = {
        "dimension": 1,
        "states": [{"name": "p", "kind": "nondet"}],
        "transitions": [{"id": "t", "from": "p", "update": [big], "to": "p"}],
    }
    m = parse_vass(json.dumps(doc))
    assert m.transition("t").update == (big,)
    assert parse_vass(json.dumps(serialize_vass(m))).transition("t").update == (big,)


def test_terminal_configuration():
    assert not Configuration("p", (0, 5)).terminal
    assert Configuration("p", (0, -1)).terminal


def test_initial_configuration(pump):
    cfg = initial_configuration(pump, "a", 7)
    assert cfg == Configuration("a", (7, 7, 7))
    with pytest.raises(ValidationError):
        initial_configuration(pump, "ghost", 7)


def test_measure_parsing_roundtrip():
    for text, meas in [("L", Termination()), ("C:2", Counter(2)), ("T:t_up", TransitionCount("t_up"))]:
        assert parse_measure(text) == meas
        assert measure_key(meas) == text
    with pytest.raises(ValueError):
        parse_measure("C:0")
    with pytest.raises(ValueError):
        parse_measure("steps")


def test_apply_md_strategy(pump):
    chain = apply_md_strategy(pump, {"a": "a_c", "c": "c_c", "e": "e_e"})
    assert all(s.kind == "prob" for s in chain.states)
    assert [t.tid for t in chain.out("a")] == ["a_c"]
    assert chain.transition("a_c").prob == 1
    # probabilistic structure untouched
    assert chain.transition("q_e").prob == Fraction(1, 2)


def test_apply_md_strategy_errors(pump):
    with pytest.raises(IncompleteStrategy):
        apply_md_strategy(pump, {"a": "a_c"})
    with pytest.raises(IncompleteStrategy):
        apply_md_strategy(pump, {"a": "c_c", "c": "c_c", "e": "e_e"})
    with pytest.raises(IncompleteStrategy):
        apply_md_strategy(pump, {"a": "a_c", "c": "c_c", "e": "e_e", "q": "q_e"})


def test_zero_counters(pump):
    z = zero_counters(pump, {2})
    assert z.transition("c_c").update == (0, 0, 1)
    assert z.transition("b_a_plus").update == (1, 0, 0)
    assert pump.transition("c_c").update == (0, -1, 1)


def test_model_immutable(walk):
    with pytest.raises(AttributeError):
        walk.dimension = 2


# --- property: serialize/parse round trip on random models ---------------------


@given(random_models())
@settings(max_examples=60, deadline=None)
def test_roundtrip_property(m):
    again = parse_vass(json.dumps(serialize_vass(m)))
    assert serialize_vass(again) == serialize_vass(m)
    assert model_digest(again) == model_digest(m)
