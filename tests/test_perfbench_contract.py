"""The names the benchmark harness reaches into the program by.

`perfbench/worker.py` counts and times spans named `<module>.<function>`, and
`perfbench/record.py` imports functions from the package. A span whose
function is gone reads 0 without failing, so each such name must resolve to
a public function defined in its module, unless it is on `STALE`, the names
the harness still reads although the program no longer has them. The
harness files are only read here.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

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
