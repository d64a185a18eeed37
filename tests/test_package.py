"""Package-wide checks: no module imports a name it never uses (so nothing is
re-exported, and every name has one import path) or defines a private name it
never reads, every public op of ``nn.tensor`` has a caller outside the tests,
only ``util`` writes the bool and dtype rules, every count argument fails with
the count rule's message, and ``derive_seed`` is stable."""

import ast
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import crossaec
from crossaec.acoustic import build_prototypes, fft_resample, pad_dsu, synth_frames
from crossaec.errors import ConfigurationError, ShapeError, VocabularyError
from crossaec.nn.config import ModelConfig
from crossaec.nn.tensor import Tensor, attention
from crossaec.util import as_number, derive_seed, token_ids

PACKAGE = Path(crossaec.__file__).parent
SOURCES = sorted(PACKAGE.rglob("*.py"))
BENCHMARK = sorted((PACKAGE.parent.parent / "perfbench").glob("*.py"))


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


def _names_taken_from_tensor(tree: ast.Module) -> set[str]:
    """Names a module imports from ``crossaec.nn.tensor`` or reads as
    attributes of the module it imports as ``from crossaec.nn import tensor``."""
    taken, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "crossaec.nn.tensor":
            taken.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "crossaec.nn":
            aliases.update(a.asname or a.name for a in node.names if a.name == "tensor")
    taken.update(
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
    )
    return taken


def test_every_public_tensor_op_has_a_caller():
    # ``nn.tensor`` holds only the ops a program runs: each public function or
    # class is used by another package module or by the benchmark. The one
    # exception is ``tensor_sum``: no program needs a sum of every entry (the
    # loss, ``cross_entropy``, is already a scalar), but every gradient test
    # builds its scalar loss from it.
    tensor_path = PACKAGE / "nn" / "tensor.py"
    public = {
        node.name
        for node in ast.parse(tensor_path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    used = set()
    for path in [p for p in SOURCES if p != tensor_path] + BENCHMARK:
        used |= _names_taken_from_tensor(ast.parse(path.read_text(encoding="utf-8")))
    assert BENCHMARK, "the benchmark files were not found"
    assert sorted(public - used - {"tensor_sum"}) == []


def _number_rule_lines(tree: ast.Module) -> list[int]:
    """Lines of every ``isinstance(x, ...)`` call whose types name ``bool``,
    every ``<x>.dtype.kind`` read and every use of ``issubdtype``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and any(isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(node.args[1]))
        )
        or (
            isinstance(node, ast.Attribute)
            and node.attr == "kind"
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "dtype"
        )
        or (isinstance(node, ast.Attribute) and node.attr == "issubdtype")
        or (isinstance(node, ast.Name) and node.id == "issubdtype")
    ]


def test_only_util_writes_the_bool_rule():
    # Numbers are checked by ``util.as_number`` and arrays of them by
    # ``util.as_array``; a second bool or dtype rule would drift.
    found = {
        path.relative_to(PACKAGE.parent).as_posix(): lines
        for path in SOURCES
        if (lines := _number_rule_lines(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert set(found) <= {"crossaec/util.py"}, found


_TABLE = build_prototypes(["a"], 2, 0.1, seed=0)
_SEQ = Tensor(np.ones((1, 2, 4)))

# Each count argument, keyed by its name (after its owner's, where two share
# one): (error type, floor, a call passing the value to that argument).
COUNT_SITES = {
    "feature_dim": (ShapeError, 1, lambda n: build_prototypes(["a"], n, 0.1, seed=0)),
    "clusters": (ShapeError, 1, lambda n: build_prototypes(["a"], 2, 0.1, 0, clusters=n)),
    "frames_per_word": (ShapeError, 1, lambda n: synth_frames(["a"], _TABLE, n, 0)),
    "fft_resample.target_len": (ShapeError, 1, lambda n: fft_resample(np.ones((3, 2)), n)),
    "pad_dsu.target_len": (ShapeError, 1, lambda n: pad_dsu(np.ones((1, 2)), n)),
    "attention.num_heads": (
        ShapeError,
        1,
        lambda n: attention(_SEQ, _SEQ, _SEQ, n, np.ones((1, 2), dtype=bool)),
    ),
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
        pytest.param(10**400, float, id="int-too-large-for-float"),
    ],
)
def test_as_number_rejects_bool_and_non_numbers(value, kind):
    assert as_number(value, kind) is None


@pytest.mark.parametrize("ids", [[2, True], [[1, 2], [False, 3]], (np.int64(1), True)])
def test_token_ids_reject_a_bool_mixed_into_integers(ids):
    # np.asarray reads these as int64 arrays; the elements show the bool.
    with pytest.raises(VocabularyError, match="must be integers, got (True|False)"):
        token_ids(ids, 5)


@pytest.mark.parametrize(
    "ids", [np.array([1, 2**63], dtype=np.uint64), [1, 2**63]], ids=["uint64-array", "list"]
)
def test_token_ids_name_an_id_too_large_for_int64(ids):
    with pytest.raises(VocabularyError, match=f"must fit in int64, got {2**63}$"):
        token_ids(ids, 5)


def test_derive_seed_is_pinned_and_below_2_63():
    assert derive_seed("corpus", 3, "line", 7) == 8121580019431239021
    for parts in [(), (0,), ("arm", "dsu"), (2**70, -1, "x")]:
        assert 0 <= derive_seed(*parts) < 2**63
