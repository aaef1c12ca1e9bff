"""Every module of the package, the tests and the scripts uses each name it
imports: an import nothing reads is dead code that hides what a module
depends on. Names re-exported through `__all__` count as used; `__future__`
imports are directives, not names.

Test modules import their helpers under one name each: pytest puts `tests/`
on the import path and loads every test module by its bare name, so an
import through the `tests` package would load a second copy of the helper
(and define its hypothesis composites twice)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused(tree: ast.Module) -> list[tuple[int, str]]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # `__all__ = [...]` re-exports
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    modules = sorted(
        path
        for folder in ("src", "tests", "scripts")
        for path in (ROOT / folder).rglob("*.py")
    )
    assert len(modules) >= 20
    found = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in modules
        for line, name in _unused(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == [], f"imported but never used: {found}"


def test_tests_import_helpers_by_their_bare_name():
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno} {module}"
        for path in sorted((ROOT / "tests").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        for module in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module or ""] if isinstance(node, ast.ImportFrom) and node.level == 0
            else []
        )
        if module.split(".")[0] == "tests"
    ]
    assert found == [], f"imported through the tests package: {found}"
