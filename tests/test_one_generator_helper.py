"""The simulator builds its Philox generators in one helper, which the
batches' re-keyed streams call, so that no path goes back to building a
generator per run: a build costs several times a re-key, and a keyed
constructor also draws OS entropy for a seed sequence the key leaves unused."""

import ast
from pathlib import Path

import vass_asym

SIM = Path(vass_asym.__file__).parent / "sim.py"


def _builds_philox(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return (isinstance(f, ast.Attribute) and f.attr == "Philox") or (isinstance(f, ast.Name) and f.id == "Philox")


def test_sim_builds_philox_in_one_helper():
    tree = ast.parse(SIM.read_text(), filename=str(SIM))
    builds = [node.lineno for node in ast.walk(tree) if _builds_philox(node)]
    helpers = [
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(map(_builds_philox, ast.walk(fn)))
    ]
    assert len(builds) == 1 and len(helpers) == 1, f"Philox built at lines {builds}, in {helpers}"
