"""Tests of the benchmark itself, at tiny sizes so they run in seconds."""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "perfbench", ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import bench  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from corrector import Head  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    DecodeSize,
    EvaluateSize,
    ModelSize,
    TrainSize,
)

TINY_MODEL = ModelSize(
    vocab=40, model_dim=16, num_heads=2, layers=1, feedforward_dim=32,
    feature_dim=4, max_seq_len=16,
)
TINY = {
    "train": TrainSize(batch=4, length=10, batches=2, model=TINY_MODEL),
    "decode": DecodeSize(min_words=3, max_words=5, model=TINY_MODEL),
    "evaluate": EvaluateSize(shards=2, utterances=4, min_words=3, lexicon=30, feature_dim=4),
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def make(name, seed, workdir):
    return WORKLOADS[name](seed, size=TINY[name], workdir=workdir)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_reported_with_its_unit(name, trace, tmp_path):
    result = bench.benchmark(name, 3, 0.0, trace, tmp_path, perf_counter(), size=TINY[name])
    out = bench.report(name, result, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        metric: value["unit"] for metric, value in out["metrics"].items()
    }
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert (result.env["params"] is None) == (name == "evaluate")
    assert {"seed", "nproc", "python", "numpy", "blas", "blas_threads"} <= set(result.env)


def test_setup_is_timed_in_fresh_processes():
    sampler = bench.SetupSampler("decode", 1, 0.0, 2)
    sampler()
    assert len(sampler.samples) == 1
    samples = sampler.finish()
    assert len(samples) == 2 and all(0.0 < s < 60.0 for s in samples)


def test_declared_workloads_are_the_benchmarks():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert list(run.WORKLOAD_NAMES) == list(WORKLOADS)


def test_tracing_restores_every_patched_callable(tmp_path):
    before = [(owner, attr, vars(owner).get(attr)) for _, owner, attr, _, _ in TARGETS]
    tracer = Tracer()
    with tracer.patched():
        for owner, attr, raw in before:
            assert vars(owner).get(attr) is not raw
        for name in WORKLOADS:
            bench.measure(make(name, 1, tmp_path / name), 0.0, tracer)
    for owner, attr, raw in before:
        assert vars(owner).get(attr) is raw, f"{owner.__name__}.{attr} not restored"
    assert "__call__" not in vars(Head)
    assert tracer.ops > 0


def test_tracing_restores_callables_after_a_failure():
    before = [(owner, attr, vars(owner).get(attr)) for _, owner, attr, _, _ in TARGETS]
    with pytest.raises(RuntimeError):
        with Tracer().patched():
            raise RuntimeError("operation failed")
    assert all(vars(owner).get(attr) is raw for owner, attr, raw in before)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_changes_no_result(name, tmp_path):
    plain = make(name, 5, tmp_path / "plain")
    bench.measure(plain, 0.0)
    traced = make(name, 5, tmp_path / "traced")
    tracer = Tracer()
    with tracer.patched():
        bench.measure(traced, 0.0, tracer)
    assert plain.digest() == traced.digest()
    assert sum(tracer.errors.values()) == 0


def test_decode_check_catches_a_token_that_is_not_greedy(tmp_path):
    workload = make("decode", 2, tmp_path)
    bench.measure(workload, 0.0)
    assert workload.final_checks() == []
    ids = workload.first[0]
    ids[-1] = (ids[-1] + 1) % TINY_MODEL.vocab
    assert workload.final_checks()


def test_span_self_time_excludes_children():
    tracer = Tracer()
    tracer._spans[:] = [
        ("outer", 0.0, 10.0, -1),
        ("inner", 1.0, 4.0, 0),
        ("inner", 5.0, 7.0, 0),
        ("leaf", 2.0, 3.0, 1),
    ]
    inclusive, self_time, covered = tracer.end_op()
    assert inclusive["outer"] == 10.0 and self_time["outer"] == 5.0
    assert inclusive["inner"] == 5.0 and self_time["inner"] == 4.0
    assert inclusive["leaf"] == self_time["leaf"] == 1.0
    assert covered == 10.0 and tracer.ops == 1


def test_tail_has_ten_samples_beyond_it():
    values = list(range(100))
    pct, value = bench.tail(values)
    assert value == 89 and sum(v > value for v in values) == 10 and pct == 90.0


def test_reference_edit_counts():
    assert reference.edit_counts("a b c".split(), "a x c d".split()) == (1, 1, 0)
    assert reference.edit_counts("a b c".split(), []) == (0, 0, 3)
    assert reference.edit_counts("a b".split(), "a b".split()) == (0, 0, 0)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
