"""VASS MDP data model: parsing, validation, serialization, derived models.

A model is (d, states, transitions): states are controlled ("nondet") or
probabilistic ("prob"); every transition carries an integer counter-update
vector of length d; transitions out of probabilistic states carry exact
positive rational probabilities summing to one. Every state has at least one
outgoing transition. A configuration is terminal as soon as some counter is
negative.

The JSON document format (shipped machine-readable in schemas/model.schema.json):

    {
      "dimension": d,
      "states": [{"name": "...", "kind": "nondet" | "prob"}, ...],
      "transitions": [
        {"id": "...", "from": "...", "update": [int, ...], "to": "...",
         "prob": "a/b"}   # "prob" present exactly when "from" is probabilistic
      ]
    }

Probabilities are strings ("1/2", "3") so no float ever touches the model;
update entries are arbitrary-precision integers.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

NONDET = "nondet"
PROB = "prob"

RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")  # the schemas' rational grammar, matched in full


class SchemaError(ValueError):
    """The document does not have the documented shape."""


class ValidationError(ValueError):
    """The document is well-shaped but violates a model invariant."""


class UnknownTransition(KeyError):
    """A transition id the model does not have."""

    def __str__(self) -> str:
        return f"unknown transition {self.args[0]!r}"


class IncompleteStrategy(ValueError):
    pass


class InternalError(RuntimeError):
    """An internal invariant failed: a bug, never a property of the input.
    Raised instead of `assert`, which `python -O` removes."""


@dataclass(frozen=True)
class State:
    name: str
    kind: str  # NONDET or PROB


@dataclass(frozen=True)
class Transition:
    tid: str
    source: str
    update: tuple[int, ...]
    target: str
    prob: Optional[Fraction] = None  # set exactly when source is probabilistic


class VassMdp:
    """Validated in-memory model with indexed lookups.

    Treated as immutable; derived models (fixed strategies, zeroed counters)
    are new instances.
    """

    __slots__ = ("dimension", "states", "transitions", "_by_name", "_by_tid", "_out")

    def __init__(
        self,
        dimension: int,
        states: Iterable[State],
        transitions: Iterable[Transition],
    ):
        states = tuple(states)
        # Stable, deterministic transition order everywhere: lexicographic id.
        transitions = tuple(sorted(transitions, key=lambda t: t.tid))
        if not isinstance(dimension, int) or isinstance(dimension, bool) or dimension < 0:
            raise ValidationError("dimension must be a nonnegative integer")
        if not states:
            raise ValidationError("model needs at least one state")

        by_name: dict[str, State] = {}
        for s in states:
            if s.kind not in (NONDET, PROB):
                raise ValidationError(f"state {s.name!r} has unknown kind {s.kind!r}")
            if s.name in by_name:
                raise ValidationError(f"duplicate state name {s.name!r}")
            by_name[s.name] = s

        by_tid: dict[str, Transition] = {}
        out: dict[str, list[Transition]] = {s.name: [] for s in states}
        for t in transitions:
            if t.tid in by_tid:
                raise ValidationError(f"duplicate transition id {t.tid!r}")
            if t.source not in by_name or t.target not in by_name:
                raise ValidationError(f"transition {t.tid!r} references unknown state")
            if len(t.update) != dimension:
                raise ValidationError(
                    f"transition {t.tid!r} update has length {len(t.update)}, "
                    f"expected {dimension}"
                )
            src_prob = by_name[t.source].kind == PROB
            if src_prob and t.prob is None:
                raise ValidationError(
                    f"transition {t.tid!r} leaves a probabilistic state but has no probability"
                )
            if not src_prob and t.prob is not None:
                raise ValidationError(
                    f"transition {t.tid!r} leaves a controlled state but carries a probability"
                )
            if t.prob is not None and not (0 < t.prob <= 1):
                raise ValidationError(f"transition {t.tid!r} probability not in (0, 1]")
            by_tid[t.tid] = t
            out[t.source].append(t)

        for s in states:
            outs = out[s.name]
            if not outs:
                raise ValidationError(f"state {s.name!r} has no outgoing transition")
            if s.kind == PROB:
                total = sum((t.prob for t in outs), Fraction(0))
                if total != 1:
                    raise ValidationError(
                        f"probabilities out of {s.name!r} sum to {total}, expected 1"
                    )

        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "transitions", transitions)
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_by_tid", by_tid)
        object.__setattr__(self, "_out", {k: tuple(v) for k, v in out.items()})

    def __setattr__(self, *_):
        raise AttributeError("VassMdp is immutable")

    def state(self, name: str) -> State:
        return self._by_name[name]

    def kind(self, name: str) -> str:
        return self._by_name[name].kind

    def transition(self, tid: str) -> Transition:
        if tid not in self._by_tid:
            raise UnknownTransition(tid)
        return self._by_tid[tid]

    def has_transition(self, tid: str) -> bool:
        return tid in self._by_tid

    def out(self, name: str) -> tuple[Transition, ...]:
        return self._out[name]

    def state_names(self) -> list[str]:
        return [s.name for s in self.states]

    def nondet_states(self) -> list[State]:
        return [s for s in self.states if s.kind == NONDET]


# --- measures -----------------------------------------------------------------


@dataclass(frozen=True)
class Termination:
    """Number of steps until some counter goes negative."""


@dataclass(frozen=True)
class Counter:
    """Peak value of counter `index` (1-based) strictly before termination."""

    index: int


@dataclass(frozen=True)
class TransitionCount:
    """Number of uses of transition `tid` up to and including the terminal step."""

    tid: str


Measure = Union[Termination, Counter, TransitionCount]


def measure_key(measure: Measure) -> str:
    if isinstance(measure, Termination):
        return "L"
    if isinstance(measure, Counter):
        return f"C:{measure.index}"
    if isinstance(measure, TransitionCount):
        return f"T:{measure.tid}"
    raise TypeError(f"not a measure: {measure!r}")


def parse_measure(text: str) -> Measure:
    if text == "L":
        return Termination()
    if text.startswith("C:"):
        try:
            idx = int(text[2:])
        except ValueError:
            raise ValueError(f"bad counter measure {text!r}") from None
        if idx < 1:
            raise ValueError("counter indices are 1-based")
        return Counter(idx)
    if text.startswith("T:"):
        if text == "T:":
            raise ValueError("transition measure T: needs a transition id")
        return TransitionCount(text[2:])
    raise ValueError(f"unknown measure {text!r}; expected L, C:<c> or T:<t>")


# --- parsing / serialization ---------------------------------------------------


def parse_rational(raw: object, where: str) -> Fraction:
    if not isinstance(raw, str) or not RATIONAL.fullmatch(raw):
        raise SchemaError(
            f"{where}: probabilities must be exact rational strings like \"1/2\", got {raw!r}"
        )
    try:
        return Fraction(raw)
    except ZeroDivisionError:
        raise SchemaError(f"{where}: {raw!r} has a zero denominator") from None
    except ValueError:  # past Python's limit on the digits of an int string
        raise SchemaError(f"{where}: a rational of {len(raw)} characters has too many digits") from None


def _require_keys(obj: dict, required: set[str], optional: set[str], where: str):
    keys = set(obj)
    missing = required - keys
    if missing:
        raise SchemaError(f"{where}: missing keys {sorted(missing)}")
    extra = keys - required - optional
    if extra:
        raise SchemaError(f"{where}: unknown keys {sorted(extra)}")


def parse_vass(source: Union[str, bytes, dict]) -> VassMdp:
    """Parse and validate a model document (JSON text or already-decoded dict).

    Structural problems raise SchemaError; invariant violations raise
    ValidationError.
    """
    if isinstance(source, (str, bytes)):
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as e:
            raise SchemaError(f"not valid JSON: {e}") from None
        except RecursionError:
            raise SchemaError("not valid JSON: nested too deeply to decode") from None
    else:
        doc = source
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    _require_keys(doc, {"dimension", "states", "transitions"}, set(), "document")

    dim = doc["dimension"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise SchemaError("dimension must be a positive integer")

    if not isinstance(doc["states"], list):
        raise SchemaError("states must be a list")
    states = []
    for i, raw in enumerate(doc["states"]):
        if not isinstance(raw, dict):
            raise SchemaError(f"states[{i}] must be an object")
        _require_keys(raw, {"name", "kind"}, set(), f"states[{i}]")
        if not isinstance(raw["name"], str) or not raw["name"]:
            raise SchemaError(f"states[{i}].name must be a nonempty string")
        if raw["kind"] not in (NONDET, PROB):
            raise SchemaError(f"states[{i}].kind must be 'nondet' or 'prob'")
        states.append(State(raw["name"], raw["kind"]))

    if not isinstance(doc["transitions"], list):
        raise SchemaError("transitions must be a list")
    kinds = {s.name: s.kind for s in states}
    transitions = []
    for i, raw in enumerate(doc["transitions"]):
        where = f"transitions[{i}]"
        if not isinstance(raw, dict):
            raise SchemaError(f"{where} must be an object")
        _require_keys(raw, {"id", "from", "update", "to"}, {"prob"}, where)
        if not isinstance(raw["id"], str) or not raw["id"]:
            raise SchemaError(f"{where}.id must be a nonempty string")
        if not isinstance(raw["from"], str) or not isinstance(raw["to"], str):
            raise SchemaError(f"{where}: 'from' and 'to' must be strings")
        upd = raw["update"]
        if not isinstance(upd, list):
            raise SchemaError(f"{where}.update must be a list of integers")
        for x in upd:
            if not isinstance(x, int) or isinstance(x, bool):
                raise SchemaError(f"{where}.update entries must be integers, got {x!r}")
        prob = None
        if "prob" in raw:
            prob = parse_rational(raw["prob"], where)
        elif kinds.get(raw["from"]) == PROB:
            raise SchemaError(f"{where}: transition out of a probabilistic state needs 'prob'")
        transitions.append(
            Transition(raw["id"], raw["from"], tuple(upd), raw["to"], prob)
        )

    return VassMdp(dim, states, transitions)


def serialize_vass(m: VassMdp) -> dict:
    """Round-trip-exact document for a model (probabilities as strings)."""
    return {
        "dimension": m.dimension,
        "states": [{"name": s.name, "kind": s.kind} for s in m.states],
        "transitions": [
            {
                "id": t.tid,
                "from": t.source,
                "update": list(t.update),
                "to": t.target,
                **({"prob": str(t.prob)} if t.prob is not None else {}),
            }
            for t in m.transitions
        ],
    }


def canonical_json(m: VassMdp) -> str:
    return json.dumps(serialize_vass(m), sort_keys=True, separators=(",", ":"))


def model_digest(m: VassMdp) -> str:
    """sha256 of the canonical serialization; pins reports to their input."""
    return hashlib.sha256(canonical_json(m).encode("utf-8")).hexdigest()


# --- derived models -------------------------------------------------------------


def apply_md_strategy(m: VassMdp, choice: Mapping[str, str]) -> VassMdp:
    """Fix one outgoing transition per controlled state (a memoryless
    deterministic strategy), yielding a finite Markov chain over the same
    state space. Unused controlled transitions are dropped; the chosen ones
    get probability 1 and their source state becomes probabilistic.
    """
    nondet_names = {s.name for s in m.nondet_states()}
    missing = nondet_names - set(choice)
    if missing:
        raise IncompleteStrategy(f"no choice for controlled states {sorted(missing)}")
    extra = set(choice) - nondet_names
    if extra:
        raise IncompleteStrategy(f"choices for non-controlled states {sorted(extra)}")
    for name, tid in choice.items():
        if not m.has_transition(tid) or m.transition(tid).source != name:
            raise IncompleteStrategy(f"{tid!r} is not an outgoing transition of {name!r}")

    states = [State(s.name, PROB) for s in m.states]
    transitions = []
    for t in m.transitions:
        if m.kind(t.source) == PROB:
            transitions.append(t)
        elif choice[t.source] == t.tid:
            transitions.append(Transition(t.tid, t.source, t.update, t.target, Fraction(1)))
    return VassMdp(m.dimension, states, transitions)


def zero_counters(m: VassMdp, counters: Iterable[int]) -> VassMdp:
    """Copy the model with the 1-based counters' updates replaced by 0."""
    idx = {c - 1 for c in counters}
    for c in idx:
        if not (0 <= c < m.dimension):
            raise ValidationError(f"counter index {c + 1} out of range")
    transitions = [
        Transition(
            t.tid,
            t.source,
            tuple(0 if i in idx else u for i, u in enumerate(t.update)),
            t.target,
            t.prob,
        )
        for t in m.transitions
    ]
    return VassMdp(m.dimension, m.states, transitions)
