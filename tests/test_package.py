"""Package-wide checks: no module imports a name it never uses (so nothing is
re-exported, and every name has one import path) or defines a private name it
never reads, only ``util`` writes the bool rule, every count argument fails
with the count rule's message, and ``derive_seed`` is stable."""

import ast
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import crossaec
from crossaec.acoustic import build_prototypes, fft_resample, pad_dsu, synth_frames
from crossaec.errors import ConfigurationError, ShapeError
from crossaec.nn.config import ModelConfig
from crossaec.util import as_number, derive_seed

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


def _bool_checks(tree: ast.Module) -> list[int]:
    """Lines of every ``isinstance(x, ...)`` call whose types name ``bool``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and any(isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(node.args[1]))
    ]


def test_only_util_writes_the_bool_rule():
    # Numbers are checked by ``util.as_number``; a second bool rule would drift.
    found = {
        path.relative_to(PACKAGE.parent).as_posix(): lines
        for path in SOURCES
        if (lines := _bool_checks(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert set(found) <= {"crossaec/util.py"}, found


_TABLE = build_prototypes(["a"], 2, 0.1, seed=0)

# Each count argument, keyed by its name (after its owner's, where two share
# one): (error type, floor, a call passing the value to that argument).
COUNT_SITES = {
    "feature_dim": (ShapeError, 1, lambda n: build_prototypes(["a"], n, 0.1, seed=0)),
    "clusters": (ShapeError, 1, lambda n: build_prototypes(["a"], 2, 0.1, 0, clusters=n)),
    "frames_per_word": (ShapeError, 1, lambda n: synth_frames(["a"], _TABLE, n, 0)),
    "fft_resample.target_len": (ShapeError, 1, lambda n: fft_resample(np.ones((3, 2)), n)),
    "pad_dsu.target_len": (ShapeError, 1, lambda n: pad_dsu(np.ones((1, 2)), n)),
    **{
        f"ModelConfig.{f.name}": (
            ConfigurationError,
            0 if f.name == "seed" else 1,
            lambda n, name=f.name: ModelConfig(**{name: n}),
        )
        for f in fields(ModelConfig)
    },
}


@pytest.mark.parametrize("bad", ["bool", "float", "str", "below-floor"])
@pytest.mark.parametrize("site", sorted(COUNT_SITES))
def test_count_arguments_fail_with_the_count_rule_message(site, bad):
    error, floor, call = COUNT_SITES[site]
    value = {"bool": True, "float": 2.5, "str": "2", "below-floor": floor - 1}[bad]
    with pytest.raises(error) as caught:
        call(value)
    name = site.split(".")[-1]
    assert str(caught.value) == f"{name} must be an integer >= {floor}, got {value!r}"


@pytest.mark.parametrize(
    "value, kind, plain",
    [
        (3, int, 3),
        (np.int64(3), int, 3),
        (np.uint8(3), int, 3),
        (np.int32(3), float, 3.0),
        (2.5, float, 2.5),
        (np.float32(0.5), float, 0.5),
        (np.float64(0.5), float, 0.5),
    ],
)
def test_as_number_returns_plain_numbers(value, kind, plain):
    number = as_number(value, kind)
    assert type(number) is kind and number == plain
    assert json.dumps(number) == json.dumps(plain)


@pytest.mark.parametrize(
    "value, kind",
    [
        (True, int),
        (np.bool_(True), int),
        (False, float),
        (2.5, int),
        (np.float64(2.0), int),
        ("2", int),
        ("2", float),
        (None, float),
        (1j, float),
    ],
)
def test_as_number_rejects_bool_and_non_numbers(value, kind):
    assert as_number(value, kind) is None


def test_derive_seed_is_pinned_and_below_2_63():
    assert derive_seed("corpus", 3, "line", 7) == 8121580019431239021
    for parts in [(), (0,), ("arm", "dsu"), (2**70, -1, "x")]:
        assert 0 <= derive_seed(*parts) < 2**63
