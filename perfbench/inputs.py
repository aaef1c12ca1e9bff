"""Seeded inputs of the benchmark workloads.

Everything here is standard library only: models are produced as JSON model
documents and handed to the program, which parses them in the timed set-up.

Each workload draws its random models from two streams of its own:

* the *ladder*, a fixed list of draws that is the same for every seed, so that
  every run measures a shared core of random structure;
* the *seeded* draws, taken from a stream keyed by the input variant.

Seeded draws are checked but not timed: their analysis time varies up to
25-fold from one draw to the next (0.03 s to 0.8 s for two-state models), so
timing them would make the timed metrics a function of the seed. The ladder,
drawn from the same generators, carries the timing. The simulation workloads
work the same way: their timed batches use the fixed ``LADDER_SIM_SEED`` (the
step count of a batch varies by up to 9% between simulation seeds), and the
same batches at the input variant's simulation seed are checked, not timed.

Draws are kept in the order the generator makes them, including slow ones and
ones the analyzer rejects as out of scope. Reference outcomes are stored for
``VARIANTS`` input variants (see ``reference.json``); ``--seed n`` runs variant
``n % VARIANTS``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

VARIANTS = 16

# The simulation seed of the timed batches; outside 0..VARIANTS-1, the seeds of
# the checked batches.
LADDER_SIM_SEED = 1000

WORKLOADS = ("analyze-multidim", "analyze-onedim", "sim-selfloop", "sim-multistate")

# The calibration loop (see calibrate.py) closest to each workload's hot path.
CALIBRATION_LOOP = {
    "analyze-multidim": "fraction",
    "analyze-onedim": "fraction",
    "sim-selfloop": "block",
    "sim-multistate": "scalar",
}

ONEDIM_CORPUS = ("decreasing_loop", "increasing_loop", "random_walk_1d", "zero_cycle_2state")

# Gadgets of the graphs with at most this many edges are analyzed; the larger
# graphs take seconds to minutes each and would swamp the workload.
GADGET_MAX_EDGES = 3


@dataclass(frozen=True)
class Model:
    """One input model: a JSON model document, or a graph whose Hamiltonicity
    gadget the program builds (``pivot`` set)."""

    name: str
    doc: dict
    pivot: Optional[str] = None


@dataclass(frozen=True)
class Op:
    """One operation: ``analyze`` (build_analysis plus json.dumps), ``energy``
    (energy_safe) or ``simulate`` (one estimate_tails batch at one n)."""

    kind: str
    model: str
    n: int = 0
    runs: int = 0
    cap: int = 0
    sim_seed: int = 0
    strategy: str = ""
    timed: bool = True

    @property
    def label(self) -> str:
        if self.kind != "simulate":
            return f"{self.kind}:{self.model}"
        return (
            f"simulate:{self.model}:{self.strategy or 'none'}:n={self.n}:"
            f"runs={self.runs}:cap={self.cap}:seed={self.sim_seed}"
        )


def strategy(name: str, n: int) -> Optional[dict]:
    """Strategies the simulation batches use, by name."""
    if name == "":
        return None
    if name == "alternate":  # zero_cycle_2state: both states have one choice
        return {"p": "t_pq", "q": "t_qp"}
    if name == "pump-leave":  # criterion 5: pump ~n^2 rounds, then route out
        leave = Fraction(1, n * n)
        return {"a": {"a_b": 1 - leave, "a_q": leave}, "e": "e_e"}
    if name == "pump-stay":  # keeps runs in the first class
        return {"a": "a_b"}
    raise ValueError(f"unknown strategy {name!r}")


def _probs(rng: random.Random, k: int) -> list[str]:
    weights = [rng.randint(1, 5) for _ in range(k)]
    total = sum(weights)
    return [str(Fraction(w, total)) for w in weights]


def _document(rng: random.Random, dim: int, names: list[str], outs: dict) -> dict:
    kinds = {name: rng.choice(["nondet", "prob"]) for name in names}
    transitions = []
    for name in names:
        probs = _probs(rng, len(outs[name])) if kinds[name] == "prob" else [None] * len(outs[name])
        for (target, update), prob in zip(outs[name], probs):
            t = {"id": f"t{len(transitions):03d}", "from": name, "update": list(update), "to": target}
            if prob is not None:
                t["prob"] = prob
            transitions.append(t)
    return {
        "dimension": dim,
        "states": [{"name": name, "kind": kinds[name]} for name in names],
        "transitions": transitions,
    }


def dag_like_model(rng: random.Random, n_states: int, dim: int, max_update: int = 2) -> dict:
    """States in a line; each takes one to two transitions to itself or a later
    state, and with probability 1/5 one to an earlier state instead, which can
    make the class graph cyclic (the analyzer then answers out of scope)."""
    names = [f"s{i}" for i in range(n_states)]
    outs: dict[str, list] = {}
    for i, name in enumerate(names):
        outs[name] = []
        for _ in range(rng.randint(1, 2)):
            r = rng.random()
            if r < 0.2 and i > 0:
                j = rng.randrange(0, i)
            elif r < 0.6 or i == n_states - 1:
                j = i
            else:
                j = rng.randint(i + 1, n_states - 1)
            update = tuple(rng.randint(-max_update, max_update) for _ in range(dim))
            outs[name].append((names[j], update))
    return _document(rng, dim, names, outs)


def strongly_connected_1d(rng: random.Random, n_states: int, max_update: int = 2) -> dict:
    """A ring through every state plus zero to two random extra transitions
    per state, one counter."""
    names = [f"s{i}" for i in range(n_states)]
    outs: dict[str, list] = {}
    for i, name in enumerate(names):
        outs[name] = [(names[(i + 1) % n_states], (rng.randint(-max_update, max_update),))]
        for _ in range(rng.randint(0, 2)):
            outs[name].append((rng.choice(names), (rng.randint(-max_update, max_update),)))
    return _document(rng, 1, names, outs)


def _draws(stream: str, count: int, make) -> list[Model]:
    rng = random.Random(stream)
    return [Model(f"{stream}#{i}", make(rng)) for i in range(count)]


def _corpus(root: Path, name: str) -> Model:
    return Model(name, json.loads((root / "models" / f"{name}.json").read_text()))


def _gadgets(root: Path) -> list[Model]:
    out = []
    for path in sorted((root / "models" / "graphs").glob("*.json")):
        doc = json.loads(path.read_text())
        if len(doc["edges"]) <= GADGET_MAX_EDGES:
            out.append(Model(f"gadget:{path.stem}", doc, pivot=min(doc["vertices"])))
    return out


def workload(root: Path, name: str, seed: int) -> tuple[list[Model], list[Op]]:
    """The models and the operations of one workload at one seed."""
    variant = seed % VARIANTS
    if name == "analyze-multidim":
        def make(rng):
            return dag_like_model(rng, n_states=rng.randint(2, 3), dim=rng.randint(2, 3))

        timed = [_corpus(root, "pump_transfer_3d")] + _draws(f"{name}/ladder", 3, make)
        seeded = _draws(f"{name}/variant-{variant}", 2, make)
        kinds = ("analyze",)
    elif name == "analyze-onedim":
        def make(rng):
            return strongly_connected_1d(rng, n_states=3)

        def make_large(rng):
            return strongly_connected_1d(rng, n_states=6)

        # The 6-state draw's LPs have about twice the rows and columns of those
        # on analyze-multidim, at about 50 ms a solve. Draws of this size take
        # 1-16 s each to analyze; this stream's first takes about 1 s.
        timed = (
            [_corpus(root, c) for c in ONEDIM_CORPUS]
            + _gadgets(root)
            + _draws(f"{name}/ladder", 2, make)
            + _draws(f"{name}/ladder-large-6", 1, make_large)
        )
        seeded = _draws(f"{name}/variant-{variant}", 2, make)
        kinds = ("analyze", "energy")
    if name.startswith("analyze-"):
        ops = [Op(kind, m.name) for m in timed for kind in kinds]
        ops += [Op(kind, m.name, timed=False) for m in seeded for kind in kinds]
        return timed + seeded, ops
    if name == "sim-selfloop":
        models = [_corpus(root, "random_walk_1d")]
        batches = [dict(model="random_walk_1d", n=n, runs=2000, cap=32 * n * n) for n in (16, 32, 64)]
    elif name == "sim-multistate":
        models = [_corpus(root, "zero_cycle_2state"), _corpus(root, "pump_transfer_3d")]
        batches = [
            dict(model="zero_cycle_2state", n=8, runs=30, cap=20_000, strategy="alternate"),
            dict(model="pump_transfer_3d", n=8, runs=200, cap=8 * 8**4, strategy="pump-leave"),
        ] + [
            # a cap of n^2 keeps these batches short on the scalar path
            dict(model="pump_transfer_3d", n=n, runs=runs, cap=n * n, strategy="pump-stay")
            for n, runs in ((16, 400), (32, 100))
        ]
    else:
        raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")
    ops = [Op("simulate", sim_seed=LADDER_SIM_SEED, **b) for b in batches]
    ops += [Op("simulate", sim_seed=variant, timed=False, **b) for b in batches]
    return models, ops
