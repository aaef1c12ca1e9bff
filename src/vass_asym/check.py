"""Re-check an analysis report from its serialized form alone.

`check_report(m, doc)` reads the document (`ReportError` if a field it uses
is missing or mistyped, its model's digest, dimension or state or transition
count is not `m`'s, or it names what does not exist), then re-substitutes
its claims into the model in exact rational arithmetic, solving nothing:
each class is an end component whose transitions are exactly the model's
between its states; each solve, listed once per (zeroed counters, class), is
a valid flow and ranking, with exactly the claimed positive and strict sets,
and maximal; each class pair's reach certificate and each type weight, and
no type longer than `max_type_len`; the zero-cycle stationary distribution;
that each measure has one estimate along each listed type and none along
another; each d >= 2 label, against the type's pipeline the checker reads
off the solves itself (`_pipeline`); and each fluctuation hint: where
counters were zeroed before the step that first pumps the measure, off that
class's solve with nothing zeroed (a missing one fails), and false
everywhere else, d = 1 included.

Not checked: that the classes are maximal and no end component lies outside
them, `dag_like`, `types_complete`, that the types listed are all the
realizable ones, the d = 1 inventory flags and labels, and the estimates'
tags, notes and witnesses. The module imports nothing of the package but
`model`, so it shares no code with the solvers it checks.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache

from .model import NONDET, PROB, RATIONAL, Counter, InternalError, Termination, TransitionCount
from .model import VassMdp, model_digest, parse_measure


class AttestationError(RuntimeError):
    """An emitted witness failed exact re-substitution."""


class ReportError(ValueError):
    """The report cannot be read, or it was made for another model."""


def _q(raw) -> Fraction:
    if isinstance(raw, str) and RATIONAL.fullmatch(raw):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError):  # a zero denominator, or too many digits
            pass
    raise ReportError(f"{raw!r} is not a rational string")


_COUNTER_KEY = re.compile(r"[1-9][0-9]*")  # the schema's counter keys, ASCII only

# The fields the checker reads. A type is a JSON value of that type
# (`Fraction`: a rational string); a 1-tuple is null or its entry; a 1-list
# a list of its entry (of `int`: counters, none repeated); a dict keyed by
# `str` (or `int`: counter keys, `_COUNTER_KEY`) a map to its value; any other
# dict an object with at least its keys.
_SOLVE = {
    "class": str,
    "zeroed_counters": [int],
    "flow": {
        "flow": {str: Fraction},
        "positive_counters": [int],
        "positive_transitions": [str],
    },
    "ranking": {
        "counter_coefficients": {int: Fraction},
        "state_offsets": {str: Fraction},
        "strict_controlled_transitions": [str],
        "strict_probabilistic_states": [str],
    },
}
_REPORT = {
    "model": {"digest": str, "dimension": int, "states": int, "transitions": int},
    "max_type_len": int,
    "classes": [{"id": str, "states": [str], "transitions": [str]}],
    "types": [{"classes": [str], "weight": Fraction}],
    "reach": [{"from": str, "to": str, "values": {str: Fraction}, "choice": {str: str}}],
    "inventory": ({str: {}},),
    "zero_cycle_witness": (
        {"class": str, "strategy": {str: str}, "component": [str], "stationary": {str: Fraction}},
    ),
    "solves": [_SOLVE],
    "estimates": {str: [{"type": [str], "label": str, "beyond_quadratic_hint": bool}]},
}


def _read(x, shape, at: str) -> None:
    """Raise `ReportError` unless `x` has `shape` (see `_REPORT`)."""
    if isinstance(shape, tuple):
        if x is not None:
            _read(x, shape[0], at)
    elif isinstance(shape, list):
        _read(x, list, at)
        for i, item in enumerate(x):
            _read(item, shape[0], f"{at}[{i}]")
        if shape == [int] and len(set(x)) != len(x):
            raise ReportError(f"{at} repeats a counter")
    elif isinstance(shape, dict) and (str in shape or int in shape):
        _read(x, dict, at)
        for key, item in x.items():
            if int in shape and not _COUNTER_KEY.fullmatch(key):
                raise ReportError(f"{at}: key {key!r} is not a counter index")
            _read(item, next(iter(shape.values())), f"{at}.{key}")
    elif isinstance(shape, dict):
        _read(x, dict, at)
        for key, item_shape in shape.items():
            if key not in x:
                raise ReportError(f"{at} has no {key!r}")
            _read(x[key], item_shape, f"{at}.{key}")
    elif shape is Fraction:
        _q(x)
    elif not isinstance(x, shape) or (isinstance(x, bool) and shape is not bool):
        raise ReportError(f"{at} is not a JSON {shape.__name__}")


def _names(m: VassMdp, doc: dict) -> None:
    """Raise `ReportError` where the report repeats a class id or names a
    class, state, counter, transition or measure that does not exist."""
    ids = [c["id"] for c in doc["classes"]]
    named = {mid for ts in doc["types"] for mid in ts["classes"]}
    named |= {mid for e in doc["reach"] for mid in (e["from"], e["to"])}
    named |= set(doc["inventory"] or {})
    named |= {s["class"] for s in doc["solves"]}
    named |= {mid for es in doc["estimates"].values() for e in es for mid in e["type"]}
    states = {s for c in doc["classes"] for s in c["states"]}
    tids = {t for c in doc["classes"] for t in c["transitions"]}
    for e in doc["reach"]:
        states |= {*e["values"], *e["choice"]}
        tids |= set(e["choice"].values())
    witness = doc["zero_cycle_witness"]
    if witness is not None:
        named.add(witness["class"])
        states |= {*witness["component"], *witness["strategy"], *witness["stationary"]}
        tids |= set(witness["strategy"].values())
    counters: set[int] = set()
    for solve in doc["solves"]:
        flow, ranking = solve["flow"], solve["ranking"]
        counters |= {*solve["zeroed_counters"], *flow["positive_counters"], *map(int, ranking["counter_coefficients"])}
        states |= {*ranking["state_offsets"], *ranking["strict_probabilistic_states"]}
        tids |= {*flow["flow"], *flow["positive_transitions"], *ranking["strict_controlled_transitions"]}
    unknown = sorted(named - set(ids)) + sorted(states - set(m.state_names()))
    unknown += sorted(tids - {t.tid for t in m.transitions})
    unknown += [f"counter {c}" for c in sorted(counters - set(range(1, m.dimension + 1)))]
    if unknown or len(set(ids)) != len(ids):
        raise ReportError(f"the report names {unknown}, which do not exist, or repeats a class id")
    for e in doc["reach"]:
        if e["from"] == e["to"]:
            raise ReportError(f"reach {e['from']}->{e['to']}: source and target class must differ")
    for key in doc["estimates"]:
        try:
            parse_measure(key)
        except ValueError as e:
            raise ReportError(str(e)) from None


def _closure(seed: set[str], edges: list[tuple[str, str]]) -> set[str]:
    """`seed` and every node `edges` lead to from it."""
    seen, grew = set(seed), True
    while grew:
        new = {b for a, b in edges if a in seen and b not in seen}
        seen |= new
        grew = bool(new)
    return seen


def _class_failures(m: VassMdp, cls: dict, elsewhere: set[str]) -> list[str]:
    """A class is an end component disjoint from the classes before it (whose
    states are `elsewhere`): its transitions are exactly the model's
    transitions between its states, none leaves a probabilistic state of it,
    and they connect its states strongly."""
    states = set(cls["states"])
    inside = sorted(t.tid for t in m.transitions if t.source in states and t.target in states)
    bad = [f"{s} is in an earlier class too" for s in sorted(states & elsewhere)]
    if sorted(cls["transitions"]) != inside:
        bad.append(f"transitions {sorted(cls['transitions'])}, not the {inside} between its states")
    for s in sorted(states):
        if m.kind(s) == PROB:
            bad += [f"{t.tid} leaves it from {s}" for t in m.out(s) if t.target not in states]
    edges = [(m.transition(t).source, m.transition(t).target) for t in inside]
    root = set(sorted(states)[:1])
    reached = _closure(root, edges) & _closure(root, [(b, a) for a, b in edges])
    if not edges or reached != states:
        bad.append("its transitions do not connect its states strongly")
    return bad


def solve_failures(
    m: VassMdp, cls: dict, flow: dict, ranking: dict, zeroed: frozenset[int] = frozenset()
) -> dict[str, list[str]]:
    """The failures of one class solve by kind (`flow`, `ranking`,
    `maximality`; all empty when valid and maximal): `cls` is a report
    class that passed `_class_failures`, `flow` and `ranking` its serialized
    witnesses, read on the model with the `zeroed` counters' updates
    replaced by 0."""
    mid, states, tids = cls["id"], set(cls["states"]), sorted(cls["transitions"])
    dims = range(1, m.dimension + 1)
    x = {t: _q(v) for t, v in flow["flow"].items()}
    y = {int(c): _q(v) for c, v in ranking["counter_coefficients"].items()}
    z = {s: _q(v) for s, v in ranking["state_offsets"].items()}
    bad: dict[str, list[str]] = {"flow": [], "ranking": [], "maximality": []}
    if not set(x) <= set(tids):
        bad["flow"].append(f"flow domain mismatch in {mid}")
    if set(y) != set(dims) or set(z) != states:
        bad["ranking"].append(f"ranking domain mismatch in {mid}")
    if bad["flow"] or bad["ranking"]:
        bad["maximality"].append(f"dichotomy domain mismatch in {mid}")
        return bad

    tr = {t: m.transition(t) for t in tids}
    u = {t: [0 if c in zeroed else v for c, v in zip(dims, tr[t].update)] for t in tids}
    x = {t: x.get(t, Fraction(0)) for t in tids}
    effect = {c: sum(x[t] * u[t][c - 1] for t in tids) for c in dims}
    delta = {
        t: z[tr[t].target] - z[tr[t].source] + sum(v * y[c] for c, v in zip(dims, u[t]))
        for t in tids
    }
    controlled = [t for t in tids if m.kind(tr[t].source) == NONDET]
    probabilistic = [s for s in sorted(states) if m.kind(s) == PROB]
    expected = {s: sum(t.prob * delta[t.tid] for t in m.out(s)) for s in probabilistic}

    f = bad["flow"]
    f += [f"x({t}) = {v} < 0" for t, v in x.items() if v < 0]
    f += [f"counter {c} effect {effect[c]} < 0" for c in dims if effect[c] < 0]
    for s in sorted(states):
        inflow = sum(x[t] for t in tids if tr[t].target == s)
        outflow = sum(x[t] for t in tids if tr[t].source == s)
        if inflow != outflow:
            f.append(f"flow not conserved at {s}: in {inflow} != out {outflow}")
        if m.kind(s) == PROB:
            uneven = [t.tid for t in m.out(s) if x[t.tid] != t.prob * outflow]
            f += [f"flow out of {s} not proportional on {t}" for t in uneven]
    f += _claim(flow, "positive_counters", {c for c in dims if effect[c] > 0})
    f += _claim(flow, "positive_transitions", {t for t in tids if x[t] > 0})

    r = bad["ranking"]
    r += [f"y({c}) = {v} < 0" for c, v in y.items() if v < 0]
    r += [f"z({s}) = {v} < 0" for s, v in z.items() if v < 0]
    if min([abs(v) for v in (*y.values(), *z.values()) if v != 0], default=1) < 1:
        r.append("minimum nonzero entry below 1")
    r += [f"rank increases along {t}: delta {delta[t]}" for t in controlled if delta[t] > 0]
    r += [f"expected rank increases out of {s}: delta {d}" for s, d in expected.items() if d > 0]
    r += _claim(ranking, "strict_controlled_transitions", {t for t in controlled if delta[t] < 0})
    r += _claim(ranking, "strict_probabilistic_states", {s for s, d in expected.items() if d < 0})

    for c in dims:
        if not (y[c] > 0 or effect[c] > 0):
            bad["maximality"].append(f"counter {c}: neither y({c}) > 0 nor a positive effect")
    for t in tids:
        if t in controlled and not (delta[t] < 0 or x[t] > 0):
            bad["maximality"].append(
                f"transition {t}: neither a strict rank decrease nor a positive flow"
            )
        elif t not in controlled and not (expected[tr[t].source] < 0 or x[t] > 0):
            bad["maximality"].append(
                f"transition {t}: neither a strict expected decrease at {tr[t].source} "
                "nor a positive flow"
            )
    return bad


def _claim(witness: dict, key: str, found: set) -> list[str]:
    """The witness's claimed set `key` is exactly the one substitution finds."""
    if set(witness[key]) == found:
        return []
    return [f"{key} claims {sorted(witness[key])}, the witness gives {sorted(found)}"]


def _reach(m: VassMdp, classes: dict, entry: dict) -> tuple[Fraction, list[str]]:
    """A class pair's reach certificate: its failures, and its value at the
    least state of the earlier class (values missing from the report are 0).
    Bellman equalities alone admit inflated fixed points on controlled
    cycles, so the values must solve the chain of the choice, every state of
    nonzero value must reach the target in that chain, and no controlled
    state may have an improving deviation. A zero-valued state needs no
    choice: no deviation improves on it, so all its successors are 0 too."""
    a, b = entry["from"], entry["to"]
    targets = set(classes[b]["states"])
    sinks = {s for mid, c in classes.items() if mid not in (a, b) for s in c["states"]}
    values = {s: _q(v) for s, v in entry["values"].items()}
    choice = entry["choice"]

    def val(s: str) -> Fraction:
        return values.get(s, Fraction(0))

    bad = [f"target {s} has value {val(s)} != 1" for s in sorted(targets) if val(s) != 1]
    bad += [f"sink {s} has value {val(s)} != 0" for s in sorted(sinks) if val(s) != 0]
    inner = [s for s in m.state_names() if s not in targets and s not in sinks]
    chosen = {s for s in inner if m.kind(s) == NONDET and val(s) != 0}
    if set(choice) != chosen:
        bad.append(f"choice at {sorted(choice)}, not at the nonzero controlled {sorted(chosen)}")
    succ = {s: [(t.prob, t.target) for t in m.out(s)] for s in inner if m.kind(s) == PROB}
    for s in sorted(chosen & set(choice)):
        if m.has_transition(choice[s]) and m.transition(choice[s]).source == s:
            succ[s] = [(Fraction(1), m.transition(choice[s]).target)]
        else:
            bad.append(f"choice {choice[s]} is not a transition out of {s}")
    reaching = _closure(targets, [(t, s) for s in succ for _, t in succ[s]])
    for s in inner:
        v = val(s)
        if v != 0 and s not in reaching:
            bad.append(f"{s} cannot reach the target under the strategy but has value {v}")
        chain = sum(p * val(t) for p, t in succ[s]) if s in succ else v
        if v != chain:
            bad.append(f"chain equation fails at {s}: {v} != {chain}")
        if m.kind(s) == NONDET:
            better = [t.tid for t in m.out(s) if val(t.target) > v]
            bad += [f"improving deviation at {s} via {t}" for t in better]
    return val(min(classes[a]["states"])), bad


def _stationary(m: VassMdp, classes: dict, w: dict) -> list[str]:
    """The strategy picks a transition out of every controlled state, its
    chain keeps the component closed, and the weights are a positive
    stationary distribution on exactly the component."""
    strategy, comp = w["strategy"], set(w["component"])
    pi = {s: _q(v) for s, v in w["stationary"].items()}
    controlled = {s.name for s in m.nondet_states()}
    if set(strategy) != controlled or any(
        not m.has_transition(t) or m.transition(t).source != s for s, t in strategy.items()
    ):
        return ["the strategy does not pick one transition out of every controlled state"]
    if set(pi) != comp:
        return [f"support mismatch: {sorted(pi)} vs {sorted(comp)}"]
    bad = [] if comp <= set(classes[w["class"]]["states"]) else ["component outside its class"]
    inflow = dict.fromkeys(comp, Fraction(0))
    for s in sorted(comp):
        for t in [m.transition(strategy[s])] if s in controlled else m.out(s):
            if t.target in inflow:
                inflow[t.target] += pi[s] * (t.prob or 1)
            else:
                bad.append(f"{t.tid} leaves the component")
    if sum(pi.values()) != 1:
        bad.append("weights do not sum to 1")
    for s in sorted(comp):
        if pi[s] <= 0:
            bad.append(f"weight of {s} not positive")
        if inflow[s] != pi[s]:
            bad.append(f"balance fails at {s}: inflow {inflow[s]} != {pi[s]}")
    return bad


def _pipeline(beta: tuple, solves: dict) -> tuple[list, str]:
    """A type's pipeline read off the solves: each class is solved with what
    the classes before it pumped zeroed, and newly pumps the other counters
    its ranking leaves at y(c) = 0. Returns the steps (solve, newly pumped)
    and, where a step's solve is missing, that step's failure."""
    steps: list[tuple[dict, set[int]]] = []
    pumped: frozenset[int] = frozenset()
    for mid in beta:
        solve = solves.get((pumped, mid))
        if solve is None:
            return [], f"no solve of class {mid} with {sorted(pumped)} zeroed"
        y = solve["ranking"]["counter_coefficients"]
        newly = {int(c) for c, v in y.items() if int(c) not in pumped and _q(v) == 0}
        steps.append((solve, newly))
        pumped |= newly
    return steps, ""


def _pumps(measure, solve: dict, counters) -> bool:
    """Does `solve` pump the measure: a counter among `counters`, the
    termination time where its flow is nonzero, a use count where its flow
    uses the transition."""
    used = solve["flow"]["positive_transitions"]
    if isinstance(measure, Counter):
        return measure.index in counters
    return bool(used) if isinstance(measure, Termination) else measure.tid in used


def _hint(m: VassMdp, measure, solve: dict, solves: dict) -> bool | None:
    """The fluctuation hint of a measure that `solve`, made with counters
    zeroed, first pumps, or None where its class's solve with nothing zeroed
    is missing: that solve pumps the measure, and a transition its flow uses
    moves a zeroed counter."""
    unzeroed = solves.get((frozenset(), solve["class"]))
    if unzeroed is None:
        return None
    flow, zeroed = unzeroed["flow"], solve["zeroed_counters"]
    used = [t for t in m.transitions if t.tid in flow["positive_transitions"]]
    moved = any(t.update[c - 1] for t in used for c in zeroed)
    return moved and _pumps(measure, unzeroed, flow["positive_counters"])


def _expected_label(measure, beta: tuple, owner: dict, pipeline) -> tuple:
    """The (label, bound, pumping solve) of a d >= 2 estimate. Only a label
    that no use-count rule decides reads the type's pipeline
    (`pipeline(beta)`): a step pumps a counter it newly pumps, the
    termination time where its flow is nonzero, and a use count where its
    flow uses the transition. The first step that pumps the measure gives
    `LowerQuadratic` and its solve; every other label comes with None."""
    if isinstance(measure, TransitionCount) and measure.tid not in owner:
        return "UpperTypeLength", len(beta), None
    if isinstance(measure, TransitionCount) and owner[measure.tid] not in beta:
        return "TightZero", None, None
    steps, missing = pipeline(beta)
    if missing:
        return f"no label ({missing})", None, None
    for solve, newly in steps:
        if _pumps(measure, solve, newly):
            return "LowerQuadratic", None, solve
    return ("UpperLinear" if isinstance(measure, TransitionCount) else "TightLinear"), None, None


def _check(m: VassMdp, doc: dict) -> tuple[int, list[str]]:
    classes = {c["id"]: c for c in doc["classes"]}
    checks = 0
    failures: list[str] = []

    def record(where: str, errors: list[str]) -> None:
        nonlocal checks
        checks += 1
        failures.extend(f"{where}: {e}" for e in errors)

    covered: set[str] = set()
    for mid, cls in classes.items():
        record(f"class {mid}", _class_failures(m, cls, covered))
        covered |= set(cls["states"])
    if failures:  # every other claim is read on the classes
        return checks, failures

    solves: dict[tuple[frozenset[int], str], dict] = {}
    for s in doc["solves"]:
        zeroed, mid = frozenset(s["zeroed_counters"]), s["class"]
        where = f"class {mid} with {sorted(zeroed)} zeroed"
        if (zeroed, mid) in solves:
            record(where, ["solved twice"])
            continue
        solves[zeroed, mid] = s
        bad = solve_failures(m, classes[mid], s["flow"], s["ranking"], zeroed)
        for kind, errors in bad.items():
            record(f"{where} {kind}", errors)
    # each one-counter class is solved once, with no counter zeroed
    missing = [mid for mid in doc["inventory"] or {} if (frozenset(), mid) not in solves]
    failures += [f"no solve of class {mid} with [] zeroed" for mid in missing]
    if doc["zero_cycle_witness"] is not None:
        w = doc["zero_cycle_witness"]
        record(f"class {w['class']} stationary", _stationary(m, classes, w))

    value: dict[tuple[str, str], Fraction] = {}
    for entry in doc["reach"]:
        pair = (entry["from"], entry["to"])
        value[pair], errors = _reach(m, classes, entry)
        record(f"reach {pair[0]}->{pair[1]}", errors)
    for ts in doc["types"]:
        pairs = list(zip(ts["classes"], ts["classes"][1:]))
        errors = [f"no reach certificate for {a}->{b}" for a, b in pairs if (a, b) not in value]
        if len(ts["classes"]) > doc["max_type_len"]:
            errors.append(f"{len(ts['classes'])} classes, past max_type_len {doc['max_type_len']}")
        weight = Fraction(1)
        for pair in pairs:
            weight *= value.get(pair, 1)
        if not errors and weight != _q(ts["weight"]):
            errors.append(f"reported weight {ts['weight']} != recomputed {weight}")
        record(f"type {','.join(ts['classes'])}", errors)

    listed = {tuple(ts["classes"]) for ts in doc["types"]}
    owner = {t: c["id"] for c in doc["classes"] for t in c["transitions"]}
    pipeline = cache(lambda beta: _pipeline(beta, solves))
    for mkey, entries in doc["estimates"].items():
        measure = parse_measure(mkey)
        along = [tuple(e["type"]) for e in entries]  # each listed type once, no other
        failures += [
            f"{mkey} along {','.join(b)}: {along.count(b)} estimates, {int(b in listed)} expected"
            for b in sorted(set(along) | listed)
            if along.count(b) != (b in listed)
        ]
        for e in entries:
            beta, hint = tuple(e["type"]), e["beyond_quadratic_hint"]
            where = f"{mkey} along {','.join(beta)}"
            if m.dimension == 1:  # a one-counter estimate carries no hint
                failures += [f"{where}: beyond_quadratic_hint true, but d = 1"] if hint else []
                continue
            label, bound, solve = _expected_label(measure, beta, owner, pipeline)
            errors, want = [], False
            if (e["label"], e.get("bound")) != (label, bound):
                with_bound = "" if bound is None else f" with bound {bound}"
                errors.append(f"label {e['label']}, but the report gives {label}{with_bound}")
            if solve is not None and solve["zeroed_counters"]:  # the unzeroed solve decides
                want = _hint(m, measure, solve, solves)
                if want is None:
                    errors.append(f"no solve of class {solve['class']} with [] zeroed for the hint")
            if want is not None and hint != want:
                got, gives = str(hint).lower(), str(want).lower()
                errors.append(f"beyond_quadratic_hint {got}, but the report gives {gives}")
            record(where, errors)
    return checks, failures


def check_report(m: VassMdp, doc: dict) -> int:
    """Re-check every claim of an analysis report of `m` (see the module
    docstring for what that covers); return the number of checks. Raises
    `ReportError` when the report cannot be read or names another model,
    `AttestationError` naming every failed check, and `InternalError` when
    the checker itself fails on a report it could read."""
    _read(doc, _REPORT, "report")
    if doc["model"]["digest"] != model_digest(m):
        raise ReportError("the report was made for another model (its digest differs)")
    counts = {"dimension": m.dimension, "states": len(m.states), "transitions": len(m.transitions)}
    wrong = [f"{key} {doc['model'][key]} (the model has {n})" for key, n in counts.items() if doc["model"][key] != n]
    if wrong:
        raise ReportError(f"the report was made for another model: it gives {', '.join(wrong)}")
    _names(m, doc)
    try:
        checks, failures = _check(m, doc)
    except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError) as e:
        # the report was read, so the checker itself is at fault
        raise InternalError(f"the checker failed: {type(e).__name__}: {e}") from e
    if failures:
        raise AttestationError("; ".join(failures))
    return checks
