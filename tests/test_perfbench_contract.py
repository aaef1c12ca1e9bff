"""The names the benchmark harness reaches into the program by, and the
trajectories of its timed simulation batches.

`perfbench/worker.py` counts and times spans named `<module>.<function>`, and
`perfbench/record.py` imports functions from the package. A span whose
function is gone reads 0 without failing, so each such name must resolve to
a public function defined in its module, unless it is on `STALE`, the names
the harness still reads although the program no longer has them. The
harness files and the benchmark's reference outcomes are only read here.
"""

import ast
import hashlib
import importlib
import inspect
import json
from fractions import Fraction
from pathlib import Path

import pytest

from vass_asym import sim
from vass_asym.model import parse_vass

ROOT = Path(__file__).resolve().parent.parent
HARNESS = [ROOT / "perfbench" / "worker.py", ROOT / "perfbench" / "record.py"]
MODULES = ("model", "graph", "ratlp", "dichotomy", "onedim", "sim", "cli", "check")

STALE = {
    "ratlp.maximize_strict_count",
    "model.augment_step_counter",
    "dichotomy.verify_system_I_witness",
    "dichotomy.verify_ranking",
    "dichotomy.verify_dichotomy",
    "graph.verify_reach_values",
    "onedim.verify_stationary",
    "onedim.detect_increasing",
    "onedim.detect_bounded_zero",
    "onedim.detect_unbounded_zero",
    "onedim.classify_onedim",
}


def harness_names() -> set[str]:
    """Every `<module>.<function>` string the harness names, except its own
    per-layer metric names, and every name it imports from the package."""
    metrics = {
        m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    }
    names = set()
    for path in HARNESS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                module, _, attr = node.value.partition(".")
                if module in MODULES and attr.isidentifier() and node.value not in metrics:
                    names.add(node.value)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("vass_asym."):
                short = node.module.removeprefix("vass_asym.")
                names |= {f"{short}.{alias.name}" for alias in node.names}
    return names


def resolves(name: str) -> bool:
    short, attr = name.split(".")
    mod = importlib.import_module(f"vass_asym.{short}")
    value = getattr(mod, attr, None)
    if inspect.isclass(value):  # record.py imports data classes too
        return True
    return inspect.isfunction(value) and value.__module__ == mod.__name__


def test_harness_names_resolve_in_the_package():
    names = harness_names()
    assert {"dichotomy.classify_dag", "onedim.brute_force_classify"} <= names
    assert sorted(n for n in names - STALE if not resolves(n)) == []


def test_stale_names_are_named_and_unresolved():
    names = harness_names()
    assert sorted(STALE - names) == []
    assert sorted(n for n in STALE if resolves(n)) == []


# The benchmark's timed simulation batches, at its timed simulation seed:
# (model, strategy, n, runs, step cap). `sim-selfloop` runs the first three
# and `sim-multistate` the others.
TIMED_SEED = 1000
TIMED_BATCHES = [
    ("random_walk_1d", "none", 16, 2000, 32 * 16**2),
    ("random_walk_1d", "none", 32, 2000, 32 * 32**2),
    ("random_walk_1d", "none", 64, 2000, 32 * 64**2),
    ("zero_cycle_2state", "alternate", 8, 30, 20_000),
    ("pump_transfer_3d", "pump-leave", 8, 200, 8 * 8**4),
    ("pump_transfer_3d", "pump-stay", 16, 400, 16**2),
    ("pump_transfer_3d", "pump-stay", 32, 100, 32**2),
]


def timed_strategy(name, n):
    if name == "none":
        return None
    if name == "alternate":  # both states of the zero cycle have one choice
        return {"p": "t_pq", "q": "t_qp"}
    if name == "pump-leave":  # pump about n**2 rounds, then route out
        leave = Fraction(1, n * n)
        return {"a": {"a_b": 1 - leave, "a_q": leave}, "e": "e_e"}
    return {"a": "a_b"}  # pump-stay: the runs stay in the first class


def trajectories_digest(stats):
    """SHA-256 over each run's statistics, in run order, as the benchmark
    digests a batch."""
    h = hashlib.sha256()
    for st in stats:
        fields = (st.terminated, st.steps, tuple(st.max_counter), sorted(st.transition_counts.items()), tuple(st.realized_type))
        h.update(repr(fields).encode("utf-8"))
    return h.hexdigest()


@pytest.mark.parametrize("model, strategy, n, runs, cap", TIMED_BATCHES, ids=lambda v: str(v))
def test_timed_simulation_batches_match_the_benchmark_reference(model, strategy, n, runs, cap, monkeypatch):
    # one estimate_tails call at one n, from the least state, as the
    # benchmark runs it; the batch's runs are what simulate_many returns
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())["simulate"]
    want = reference[f"simulate:{model}:{strategy}:n={n}:runs={runs}:cap={cap}:seed={TIMED_SEED}"]
    m = parse_vass((ROOT / "models" / f"{model}.json").read_text())
    batches, inner = [], sim.simulate_many

    def capturing(*args, **kwargs):
        batches.append(inner(*args, **kwargs))
        return batches[-1]

    monkeypatch.setattr(sim, "simulate_many", capturing)
    init = min(m.state_names())
    sim.estimate_tails(m, [n], runs, seed=TIMED_SEED, strategy=timed_strategy(strategy, n), max_steps=cap, init_state=init)
    (stats,) = batches
    assert (sum(st.steps for st in stats), trajectories_digest(stats)) == (want["steps"], want["trajectories"])
