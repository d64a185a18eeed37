"""Package-wide checks: no module imports a name it never uses (so nothing is
re-exported, and every name has one import path) or defines a private name it
never reads, and ``derive_seed`` is stable."""

import ast
from pathlib import Path

import pytest

import crossaec
from crossaec.util import derive_seed

PACKAGE = Path(crossaec.__file__).parent
SOURCES = sorted(PACKAGE.rglob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize(
    "path", SOURCES, ids=lambda p: p.relative_to(PACKAGE.parent).as_posix()
)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def _dead_private_names(tree: ast.Module) -> list[str]:
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defined[target.id] = node.lineno
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{name} (line {line})"
        for name, line in defined.items()
        if name.startswith("_") and not name.startswith("__") and name not in loaded
    ]


@pytest.mark.parametrize(
    "path", SOURCES, ids=lambda p: p.relative_to(PACKAGE.parent).as_posix()
)
def test_no_dead_private_names(path):
    assert _dead_private_names(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_derive_seed_is_pinned_and_below_2_63():
    assert derive_seed("corpus", 3, "line", 7) == 8121580019431239021
    for parts in [(), (0,), ("arm", "dsu"), (2**70, -1, "x")]:
        assert 0 <= derive_seed(*parts) < 2**63
