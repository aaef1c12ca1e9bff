"""The package states its invariants as raises, never as `assert`, which
`python -O` strips: a failed invariant must exit 3 under every interpreter
flag (see `model.InternalError`)."""

import ast
from pathlib import Path

import vass_asym

PACKAGE = Path(vass_asym.__file__).parent


def test_no_assert_statements_in_package():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 8
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements in the package: {found}"
