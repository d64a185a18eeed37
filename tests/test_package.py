"""Package-wide checks: no module imports a name it never uses (so nothing is
re-exported, and every name has one import path) or defines a private name it
never reads, every public name of the package has a caller outside the tests
or a named reservation, only ``util`` writes the bool and dtype rules, and
every count argument fails with the count rule's message."""

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
from crossaec.text import Vocabulary, encode
from crossaec.util import as_number, token_ids

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


def _module_level_names(tree: ast.Module) -> dict[str, int]:
    """The functions, classes and assigned names of a module's top level, with
    the line of each."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defined[target.id] = node.lineno
    return defined


def _dead_private_names(tree: ast.Module) -> list[str]:
    defined = _module_level_names(tree)
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


def _module_of(path: Path) -> str:
    """``nn/tensor.py`` -> ``nn.tensor``."""
    return ".".join(path.relative_to(PACKAGE).with_suffix("").parts)


MODULES = {_module_of(path) for path in SOURCES}
# Tests are not callers: a name only a test calls is reserved or deleted.
CALLERS = SOURCES + [path for path in BENCHMARK if not path.name.startswith("test_")]

# Public names with no caller in the package or the benchmark, each with what
# keeps it: a test tool, or the ROADMAP item whose code will call it.
RESERVED = {
    "nn.tensor.tensor_sum": "test tool: every gradient test builds its scalar loss from it",
    "nn.gradcheck.gradient_check": "test tool: the finite-difference gate of the layer tests",
    "nn.config.ModelConfig.from_dict": "item 1c: `crossaec run --config` reads its config",
    "text.decode": "item 1c: greedy decoding turns the corrector's ids back into words",
    "acoustic.build_prototypes": "item 1c: the package's runs and the clusters=1 control",
    "nn.params.ParameterStore.state_dict": "item 2: a checkpoint saves the parameters",
    "nn.params.ParameterStore.load_state_dict": "item 2: a resumed run loads them",
    "text.Vocabulary.to_list": "item 2: a checkpoint saves the vocabulary",
    "text.Vocabulary.from_list": "item 2: a resumed run rebuilds it",
    "errors.CalibrationError": "item 9: raised when no noise level gives the target WER",
    "metrics.edit_ops": "items 3 and 10 align with it; perfbench/tracing.py patches it",
    "metrics.bleu": "item 6 retargets its span; perfbench/tracing.py patches it",
    "metrics.gleu": "item 6 retargets its span; perfbench/tracing.py patches it",
}


def _public_names(tree: ast.Module) -> list[str]:
    """Public module-level functions, classes and constants, as ``name``, and
    the public methods of public classes, as ``Class.method``."""
    names = list(_module_level_names(tree))
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            methods = [m.name for m in node.body if isinstance(m, ast.FunctionDef)]
            names += [f"{node.name}.{m}" for m in methods]
    return [n for n in names if not any(part.startswith("_") for part in n.split("."))]


def _reads(tree: ast.Module, own: str | None) -> tuple[set[str], set[str]]:
    """The package names a module reads, as ``module.name``, and the name of
    every attribute it reads. A name is read through ``from module import
    name``, through ``alias.name`` where ``alias`` was imported as a package
    module, or, in its own module ``own``, by plain use."""
    names, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("crossaec"):
            package = node.module.removeprefix("crossaec").lstrip(".")
            for alias in node.names:
                name = f"{package}.{alias.name}".lstrip(".")
                if name in MODULES:
                    aliases[alias.asname or alias.name] = name
                else:
                    names.add(name)
    attributes = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
            if isinstance(node.value, ast.Name) and node.value.id in aliases:
                names.add(f"{aliases[node.value.id]}.{node.attr}")
        elif own and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(f"{own}.{node.id}")
    return names, attributes


def test_every_public_name_has_a_caller_or_is_reserved():
    """Every public function, class, constant and method of ``crossaec`` is
    used by a module of the package or the benchmark, or is in ``RESERVED``.

    A method counts as called on any attribute read of its name, whatever
    the object: the match is by name only, so ``ModelConfig.to_dict`` passes
    on the benchmark's ``report.to_dict()``. The test also fails when a
    reserved name gains a caller (or is gone), so ``RESERVED`` shrinks as the
    code that calls its names lands."""
    assert BENCHMARK, "the benchmark files were not found"
    names, attributes = set(), set()
    for path in CALLERS:
        own = _module_of(path) if path in SOURCES else None
        read, attrs = _reads(ast.parse(path.read_text(encoding="utf-8")), own)
        names |= read
        attributes |= attrs
    uncalled = set()
    for path in SOURCES:
        module = _module_of(path)
        for name in _public_names(ast.parse(path.read_text(encoding="utf-8"))):
            _, _, method = name.partition(".")
            if not (method in attributes if method else f"{module}.{name}" in names):
                uncalled.add(f"{module}.{name}")
    assert sorted(uncalled - set(RESERVED)) == [], "no caller: delete it or reserve it"
    assert sorted(set(RESERVED) - uncalled) == [], "called or gone: drop it from RESERVED"


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
    "build_prototypes.seed": (ShapeError, 0, lambda n: build_prototypes(["a"], 2, 0.1, n)),
    "rng_seed": (ShapeError, 0, lambda n: synth_frames(["a"], _TABLE, 2, n)),
    "encode.max_seq_len": (
        ConfigurationError,
        1,
        lambda n: encode(Vocabulary(["a"]), ["a"], max_seq_len=n),
    ),
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


@pytest.mark.parametrize("site", ["build_prototypes.seed", "rng_seed"])
def test_seeds_reject_none(site):
    # numpy would draw OS entropy for None, so the values would change per run.
    error, _, call = COUNT_SITES[site]
    with pytest.raises(error, match="must be an integer >= 0, got None$"):
        call(None)


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
