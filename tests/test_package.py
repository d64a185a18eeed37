"""Package-wide checks: no module imports a name it never uses (so nothing is
re-exported, and every name has one import path) or defines a private name it
never reads, every public name of the package has a caller outside the tests
or a named reservation, and only ``util`` writes the bool and dtype rules.
Each argument rule of ``util`` (count, real, array, id) has one table of the
sites that call it, and every site runs every case of its rule: an array site
runs the cases of its kind (bool, int or float), and a float site also the
non-finite ones."""

import ast
import math
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

import crossaec
from crossaec.acoustic import (
    PrototypeTable,
    build_prototypes,
    fft_resample,
    mean_pool_awe,
    pad_dsu,
    synth_frames,
)
from crossaec.errors import AlignmentError, ConfigurationError, ShapeError, VocabularyError
from crossaec.nn.config import ModelConfig, OptimizerConfig
from crossaec.nn.layers import (
    Decoder,
    Embedding,
    Encoder,
    MultiHeadAttention,
    cross_entropy_loss,
)
from crossaec.nn.params import ParameterStore
from crossaec.nn.tensor import (
    Rows,
    Tensor,
    attention,
    cross_entropy,
    embedding_lookup,
    gather_rows,
)
from crossaec.text import Vocabulary, decode, encode
from crossaec.util import as_array, stable_hash, token_ids

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
    "nn.gradcheck.gradient_check": "test tool: the gate of every op and of the whole corrector",
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


def _bool_array_readers(tree: ast.Module) -> list[str]:
    """The top-level definition around each ``as_array(..., bool, ...)`` call."""
    return [
        getattr(top, "name", "<module>")
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "as_array"
        and any(
            isinstance(kind, ast.Name) and kind.id == "bool"
            for kind in node.args[1:2] + [k.value for k in node.keywords if k.arg == "kind"]
        )
    ]


def test_only_rows_reads_a_mask():
    # Masks are read by ``nn.tensor.Rows`` alone; a second mask reader would drift.
    found = {
        path.relative_to(PACKAGE.parent).as_posix(): readers
        for path in SOURCES
        if (readers := _bool_array_readers(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {"crossaec/nn/tensor.py": ["Rows"]}, found


_TABLE = build_prototypes(["a"], 2, 0.1, seed=0)
_SEQ = Tensor(np.ones((1, 2, 4)))
_SEQ_ROWS = Rows(np.ones((1, 2), dtype=bool), "mask")

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
        lambda n: attention(_SEQ, _SEQ, _SEQ, n, _SEQ_ROWS, _SEQ_ROWS),
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


@pytest.mark.parametrize(
    "bad", ["bool", "numpy-bool", "float", "whole-float", "numpy-float", "str", "below-floor"]
)
@pytest.mark.parametrize("site", sorted(COUNT_SITES))
def test_count_arguments_fail_with_the_count_rule_message(site, bad):
    error, floor, call = COUNT_SITES[site]
    value = {
        "bool": True,
        "numpy-bool": np.bool_(True),
        "float": 2.5,
        "whole-float": 2.0,
        "numpy-float": np.float64(2.0),
        "str": "2",
        "below-floor": floor - 1,
    }[bad]
    with pytest.raises(error) as caught:
        call(value)
    name = site.split(".")[-1]
    assert str(caught.value) == f"{name} must be an integer >= {floor}, got {value!r}"


@pytest.mark.parametrize("site", ["build_prototypes.seed", "rng_seed", "ModelConfig.seed"])
def test_seeds_reject_none(site):
    # numpy would draw OS entropy for None, so the values would change per run.
    error, _, call = COUNT_SITES[site]
    with pytest.raises(error, match="must be an integer >= 0, got None$"):
        call(None)


def _plain(value):
    """``value`` with tensors and arrays as lists and dataclasses as dicts, so
    ``stable_hash`` can read it; a stored numpy scalar stays and fails the hash."""
    if isinstance(value, Tensor):
        value = value.data
    if isinstance(value, np.ndarray):
        return value.tolist()
    if is_dataclass(value):
        value = vars(value)
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


@pytest.mark.parametrize("to_numpy", [np.int64, np.int32, np.uint16])
@pytest.mark.parametrize("site", sorted(COUNT_SITES))
def test_count_arguments_take_numpy_integers(site, to_numpy):
    # 4 suits every site: ModelConfig's model_dim must split into its 4 heads.
    call = COUNT_SITES[site][2]
    assert stable_hash(_plain(call(to_numpy(4)))) == stable_hash(_plain(call(4)))


# Each real argument, keyed like the counts: (error type, a call passing the
# value to that argument and returning it as stored).
REAL_SITES = {
    "learning_rate": (ConfigurationError, lambda x: OptimizerConfig(x).learning_rate),
    "PrototypeTable.noise_sigma": (
        ShapeError,
        lambda x: PrototypeTable({"a": [1.0]}, x).noise_sigma,
    ),
    "build_prototypes.noise_sigma": (
        ShapeError,
        lambda x: build_prototypes(["a"], 2, x, 0).noise_sigma,
    ),
}


@pytest.mark.parametrize(
    "bad",
    [math.nan, math.inf, -math.inf, -0.5, "0.1", None, True, 1j, 10**400],
    ids=["nan", "inf", "-inf", "negative", "str", "none", "bool", "complex", "int-past-float"],
)
@pytest.mark.parametrize("site", sorted(REAL_SITES))
def test_real_arguments_fail_with_the_real_rule_message(site, bad):
    error, call = REAL_SITES[site]
    with pytest.raises(error) as caught:
        call(bad)
    name = site.split(".")[-1]
    assert str(caught.value) == f"{name} must be a finite number >= 0, got {bad!r}"


@pytest.mark.parametrize(
    "value, plain",
    [
        (np.float32(0.5), 0.5),
        (np.float64(0.5), 0.5),
        (2.5, 2.5),
        (np.int32(1), 1.0),
        (np.int64(1), 1.0),
        (2, 2.0),
    ],
    ids=["float32", "float64", "float", "int32", "int64", "int"],
)
@pytest.mark.parametrize("site", sorted(REAL_SITES))
def test_real_arguments_are_stored_as_plain_floats(site, value, plain):
    stored = REAL_SITES[site][1](value)
    assert type(stored) is float and stored == plain


def _load_w(value):
    store = ParameterStore()
    store.create("w", np.zeros(2))
    store.load_state_dict({"w": value})


_WEIGHT = Tensor(np.zeros((5, 2)))
_STACK_CONFIG = ModelConfig(model_dim=4, num_heads=2, encoder_layers=1, decoder_layers=1)
_ENCODER = Encoder(ParameterStore(), "enc", _STACK_CONFIG, np.random.default_rng(0))
_DECODER = Decoder(ParameterStore(), "dec", _STACK_CONFIG, np.random.default_rng(0))
_ATTENTION = MultiHeadAttention(ParameterStore(), "attn", 4, 2, np.random.default_rng(0))
_LOGITS = Tensor(np.zeros((1, 2, 5)))

# Each array argument: (error type, the name in its message, the kind of its
# values, a call passing the array to that argument). The bool sites take a
# (1, 2) mask.
ARRAY_SITES = {
    "mean_pool_awe": (ShapeError, "frames", float, lambda v: mean_pool_awe(v, [(0, 1)])),
    "pad_dsu": (ShapeError, "awe", float, lambda v: pad_dsu(v, 4)),
    "fft_resample": (ShapeError, "frames", float, lambda v: fft_resample(v, 4)),
    "prototype": (
        ShapeError,
        "prototype for 'a'",
        float,
        lambda v: PrototypeTable({"a": v}, 0.1),
    ),
    "load_state_dict": (ShapeError, "value for w", float, _load_w),
    "create": (ShapeError, "value for w", float, lambda v: ParameterStore().create("w", v)),
    "Tensor": (ShapeError, "tensor data", float, Tensor),
    "span-ends": (
        AlignmentError,
        "boundary ends",
        int,
        lambda v: mean_pool_awe(np.zeros((4, 2)), v),
    ),
    "token-ids": (VocabularyError, "token ids", int, lambda v: token_ids(v, 5)),
    "MultiHeadAttention": (ShapeError, "key_mask", bool, lambda m: _ATTENTION(_SEQ, _SEQ, m)),
    "Encoder": (ShapeError, "mask", bool, lambda m: _ENCODER(_SEQ, m)),
    "Decoder.memory_mask": (
        ShapeError,
        "memory_mask",
        bool,
        lambda m: _DECODER(_SEQ, np.ones((1, 2), dtype=bool), _SEQ, m),
    ),
    "Rows": (ShapeError, "row mask", bool, lambda m: gather_rows(_SEQ, Rows(m, "row mask"))),
    "cross_entropy": (
        ShapeError,
        "pad_mask",
        bool,
        lambda m: cross_entropy(_LOGITS, [[0, 1]], m),
    ),
    "cross_entropy_loss": (
        ShapeError,
        "pad_mask",
        bool,
        lambda m: cross_entropy_loss(_LOGITS, [[0, 1]], m),
    ),
}

WORDS = {bool: "booleans", int: "integers", float: "numbers"}

NON_NUMBERS = {
    "numeric-strings": [["1.5", "2"], ["3", "4"]],
    "string": [["a", 1.0]],
    "dict": [[{"x": 1}, 1.0]],
    "none": [[0, None]],
    "bools": [[True, False], [False, True]],
    "float-and-bool": [[1.0, True], [2.0, 3.0]],
    "int-and-bool": [[2, True], [3, 4]],
    "bool-array": np.ones((2, 2), dtype=bool),
    "string-array": np.array([["3", "4"]]),
    "object-array": np.ones((2, 2), dtype=object),
    "ragged-rows": [[1.0], [2.0, 3.0]],
    "ragged-arrays": [np.zeros((2, 2)), np.zeros((2, 3))],
    "float": [[0, 1.5]],  # refused by the integer sites only
}

# Masks that numpy would read by truthiness: each must be refused, not read.
NON_BOOLS = {
    "strings": [["no", ""]],
    "bool-and-string": [[True, "x"]],
    "floats": [[0.5, 0.0]],
    "ints": [[1, 0]],
    "none": None,
    "none-element": [[None, True]],
    "int-array": np.ones((1, 2), dtype=np.int64),
    "float-array": np.ones((1, 2)),
    "string-array": np.array([["x", ""]]),
    "object-array": np.ones((1, 2), dtype=object),
    # An ndarray's dtype says what it holds, and object says nothing.
    "bool-object-array": np.array([[True, False]], dtype=object),
    "ragged-rows": [[True], [True, False]],
}

# Each non-finite value, in a list and in an ndarray: the float sites refuse both.
NON_FINITE = {
    f"{value!r}-{form.__name__}": (form([[1.0, value]]), value)
    for value in (math.nan, math.inf, -math.inf)
    for form in (list, np.array)
}

# The cases each kind of site runs.
BAD_ARRAYS = {
    bool: NON_BOOLS,
    int: NON_NUMBERS,
    float: {case: v for case, v in NON_NUMBERS.items() if case != "float"},
}


@pytest.mark.parametrize(
    "site, case",
    [
        (site, case)
        for site, (_, _, kind, _) in sorted(ARRAY_SITES.items())
        for case in sorted(BAD_ARRAYS[kind])
    ],
)
def test_array_arguments_must_hold_their_kind(site, case):
    error, name, kind, call = ARRAY_SITES[site]
    with pytest.raises(error) as caught:
        call(BAD_ARRAYS[kind][case])
    assert str(caught.value).startswith(f"{name} must be {WORDS[kind]}, got ")


def _sites(kind: type) -> list[str]:
    return sorted(site for site, (_, _, k, _) in ARRAY_SITES.items() if k is kind)


@pytest.mark.parametrize("case", sorted(NON_FINITE))
@pytest.mark.parametrize("site", _sites(float))
def test_float_arguments_must_be_finite(site, case):
    error, name, _, call = ARRAY_SITES[site]
    values, bad = NON_FINITE[case]
    with pytest.raises(error) as caught:
        call(values)
    assert str(caught.value) == f"{name} must be finite, got {bad!r}"


@pytest.mark.parametrize(
    "mask",
    [[[True, False]], [[np.True_, np.False_]], ([True, False],)],
    ids=["list", "numpy-bools", "tuple-of-list"],
)
@pytest.mark.parametrize("site", _sites(bool))
def test_bool_arguments_read_bools_from_any_container(site, mask):
    call = ARRAY_SITES[site][3]
    np.testing.assert_array_equal(call(mask).data, call(np.array([[True, False]])).data)


@pytest.mark.parametrize(
    "kind, dtype",
    [(bool, bool), (int, np.int64), (float, np.float64)],
    ids=["bool", "int", "float"],
)
def test_arrays_of_the_target_dtype_pass_uncopied(kind, dtype):
    array = np.ones((2, 2), dtype=dtype)
    assert as_array(array, kind, "values", ShapeError) is array


_VOCAB = Vocabulary(["a"])  # 5 ids: the four specials, then "a"
_EMBEDDING = Embedding(ParameterStore(), "emb", 5, 2, np.random.default_rng(0))

# Each function taking token ids, called on a list of two ids whose last may be
# bad (``word_of`` takes that one alone).
ID_SITES = {
    "token_ids": lambda ids: token_ids(ids, 5),
    "embedding_lookup": lambda ids: embedding_lookup(_WEIGHT, [ids]),
    "Embedding": lambda ids: _EMBEDDING([ids]),
    "cross_entropy": lambda ids: cross_entropy(_LOGITS, [ids], np.ones((1, 2), dtype=bool)),
    "cross_entropy_loss": lambda ids: cross_entropy_loss(
        _LOGITS, [ids], np.ones((1, 2), dtype=bool)
    ),
    "Vocabulary.word_of": lambda ids: _VOCAB.word_of(ids[-1]),
    "decode": lambda ids: decode(_VOCAB, ids),
}

# The ids, and the message of the VocabularyError every site raises for them.
BAD_IDS = {
    "negative": ([0, -1], "id -1 outside vocabulary of size 5"),
    "vocab-size": ([0, 5], "id 5 outside vocabulary of size 5"),
    "float": ([0, 1.5], "token ids must be integers, got 1.5"),
    "whole-float": ([0, 2.0], "token ids must be integers, got 2.0"),
    "bools": ([True, True], "token ids must be integers, got True"),
    # numpy reads [0, True] as int64 [0, 1]; the elements show the bool.
    "int-and-bool": ([np.int64(0), True], "token ids must be integers, got True"),
    "past-int64": ([0, 2**63], f"token ids must fit in int64, got {2**63}"),
    "past-int64-uint64-array": (
        np.array([0, 2**63], dtype=np.uint64),
        f"token ids must fit in int64, got {2**63}",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_IDS))
@pytest.mark.parametrize("site", sorted(ID_SITES))
def test_id_arguments_fail_with_the_id_rule_message(site, case):
    ids, message = BAD_IDS[case]
    with pytest.raises(VocabularyError) as caught:
        ID_SITES[site](ids)
    assert str(caught.value) == message
