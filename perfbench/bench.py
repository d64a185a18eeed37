"""Measure one workload and turn the timings into the benchmark's metrics.

End-to-end metrics come from an untraced run. With tracing on, the run is
split: an untraced half, then a traced half whose spans give the per-layer
metrics; the drop in tokens/s between the halves is the tracing overhead.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import MODULES, Tracer
from workloads import WORKLOADS

RUN = Path(__file__).resolve().with_name("run.py")
SETUP_RUNS = 13  # full set-ups timed in an untraced run, each in a fresh process
MIN_PASSES = 2
COVERAGE_FLOOR = 90.0  # % of operation time inside layer spans

# per-layer metric -> (span name, True for self time rather than inclusive)
LAYER_TIMES = {
    "nn.tensor.backward_ms": ("nn.tensor.backward", False),
    "nn.optim.adam_step_ms": ("nn.optim.adam_step", False),
    "nn.layers.encoder_ms": ("nn.layers.encoder", False),
    "nn.layers.decoder_ms": ("nn.layers.decoder", False),
    "nn.layers.self_attention_ms": ("nn.layers.self_attention", False),
    "nn.layers.cross_attention_ms": ("nn.layers.cross_attention", False),
    "nn.layers.feedforward_ms": ("nn.layers.feedforward", True),
    "nn.layers.layernorm_ms": ("nn.layers.layernorm", True),
    "nn.layers.embedding_ms": ("nn.layers.embedding", True),
    "nn.layers.head_ms": ("nn.layers.head", False),
    "nn.layers.loss_ms": ("nn.layers.loss", False),
    "acoustic.project_features_ms": ("acoustic.project_features", False),
    "acoustic.synth_frames_ms": ("acoustic.synth_frames", False),
    "acoustic.mean_pool_awe_ms": ("acoustic.mean_pool_awe", False),
    "acoustic.pad_dsu_ms": ("acoustic.pad_dsu", False),
    "acoustic.fft_resample_ms": ("acoustic.fft_resample", False),
    "text.load_corpus_ms": ("text.load_corpus", False),
    "text.build_vocab_ms": ("text.build_vocab", False),
    "text.encode_ms": ("text.encode", False),
    "metrics.report_ms": ("metrics.report", False),
    "metrics.edit_ops_ms": ("metrics.edit_ops", False),
    "metrics.bleu_ms": ("metrics.bleu", False),
    "metrics.gleu_ms": ("metrics.gleu", False),
}

# per-layer metric -> tracer count, summed over the run and divided per op
LAYER_COUNTS = {
    "nn.layers.attention_calls": "nn.layers.attention_calls",
    "acoustic.frames_per_op": "acoustic.frames",
    "text.records_per_op": "text.records",
    "metrics.dp_cells_per_op": "metrics.dp_cells",
}


@dataclass
class Timings:
    times: list  # per item: seconds of each successful repetition
    tokens: list  # per item: useful tokens of one operation
    best_spans: list  # per item: the tracer's fold of its fastest repetition
    attempted: int = 0
    failed: int = 0

    def best(self) -> list[float]:
        return [min(t) for t in self.times if t]

    def tokens_per_s(self) -> float:
        """Throughput of one pass with every operation at its fastest."""
        done = [n for n, t in zip(self.tokens, self.times) if t]
        return sum(done) / sum(self.best())


def measure(workload, seconds: float, tracer: Tracer | None = None,
            between=None) -> Timings:
    """Run whole passes over the workload's items for ``seconds`` (and at
    least ``MIN_PASSES`` passes). Only ``workload.run`` is timed;
    ``between``, if given, is called after every pass."""
    items = workload.items
    timings = Timings([[] for _ in items], list(workload.tokens), [None] * len(items))
    deadline = perf_counter() + seconds
    passes = 0
    while passes < MIN_PASSES or perf_counter() < deadline:
        for index, item in enumerate(items):
            timings.attempted += 1
            start = perf_counter()
            try:
                out = workload.run(item)
            except Exception:
                elapsed = perf_counter() - start
                ok = False
                traceback.print_exc()
            else:
                elapsed = perf_counter() - start
                ok = workload.check(index, out)
            spans = tracer.end_op() if tracer is not None else None
            if not ok:
                timings.failed += 1
                continue
            times = timings.times[index]
            if not times or elapsed < min(times):
                timings.best_spans[index] = spans
            times.append(elapsed)
        passes += 1
        if between is not None:
            between()
    return timings


class SetupSampler:
    """Times ``count`` full set-ups of a workload, each in a fresh process
    (``run.py --setup-only``), spread evenly over a run of ``seconds``."""

    def __init__(self, name: str, seed: int, seconds: float, count: int):
        self.command = [
            sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
            "--seconds", "1", "--trace", "0", "--setup-only",
        ]
        self.seconds = seconds
        self.count = count
        self.start = perf_counter()
        self.samples: list[float] = []

    def _sample(self) -> None:
        done = subprocess.run(
            self.command, cwd=RUN.parent.parent, capture_output=True, text=True,
            timeout=120, check=True,
        )
        self.samples.append(float(done.stdout.split()[-1]))

    def __call__(self) -> None:
        due = self.start + self.seconds * len(self.samples) / max(self.count, 1)
        if len(self.samples) < self.count and perf_counter() >= due:
            self._sample()

    def finish(self) -> list[float]:
        """The samples, topped up if the run ended before all were due."""
        while len(self.samples) < self.count:
            self._sample()
        return self.samples


def tail(values: list) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    value. Fewer than eleven samples give the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(timings: Timings, setups: list) -> dict:
    best_ms = [s * 1e3 for s in timings.best()]
    every_ms = [s * 1e3 for times in timings.times for s in times]
    pct, tail_ms = tail(every_ms)
    reps = min(len(t) for t in timings.times)
    basis = f"of {len(best_ms)} ops, each its fastest of >= {reps} repetitions"
    return {
        "setup_s": (min(setups), "s",
                    f"fastest of {len(setups)} set-ups, each from process start"),
        "tokens_per_s": (timings.tokens_per_s(), "tokens/s", f"one pass {basis}"),
        "op_p50_ms": (statistics.median(best_ms), "ms", f"median {basis}"),
        "op_tail_ms": (tail_ms, "ms", f"p{pct:.2f} of all {len(every_ms)} timed operations"),
        "peak_rss_mb": (peak_rss_mb(), "MB", "ru_maxrss of the process"),
    }


def per_layer(tracer: Tracer, traced: Timings, untraced: Timings) -> dict:
    """Layer times of each item's fastest traced repetition, per op."""
    best = [s for s in traced.best_spans if s is not None]
    ops = len(best)
    out = {}
    for metric, (span, self_time) in LAYER_TIMES.items():
        total = sum(spans[1 if self_time else 0].get(span, 0.0) for spans in best)
        kind = "self" if self_time else "inclusive"
        out[metric] = (1e3 * total / ops, "ms", f"{kind}, fastest repetition of {ops} ops")
    for metric, key in LAYER_COUNTS.items():
        out[metric] = (tracer.counts.get(key, 0) / tracer.ops, "count/op", "")
    tokens = sum(n * len(t) for n, t in zip(traced.tokens, traced.times))
    out["nn.layers.decoder_positions_per_token"] = (
        tracer.counts.get("nn.layers.decoder_positions", 0) / tokens,
        "positions/token",
        "batch x length into Decoder per useful token",
    )
    for module in MODULES:
        out[f"{module}.errors"] = (tracer.errors[module], "count", "exceptions in its spans")
    covered = sum(spans[2] for spans in best)
    out["trace.coverage_pct"] = (
        100.0 * covered / sum(traced.best()), "%", "op time inside layer spans"
    )
    slow = traced.tokens_per_s() / untraced.tokens_per_s()
    out["trace.overhead_pct"] = (100.0 * (1.0 - slow), "%", "tokens/s lost to tracing")
    return out


def blas_threads():
    """OpenBLAS's thread count, read from numpy's bundled library."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def environment(seed: int, params) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "params": params,
    }


@dataclass
class Result:
    metrics: dict  # name -> (value, unit, note)
    attempted: int
    failed: int
    failed_checks: list
    env: dict
    digest: str


def benchmark(name: str, seed: int, seconds: float, trace: bool, workdir,
              started: float, size=None) -> Result:
    """Set up ``name`` and measure it. ``size`` None is the workload's
    benchmark size.

    ``started`` is the ``perf_counter()`` reading at process start, so that
    imports count toward ``setup_s``. An untraced run at the benchmark size
    also times ``SETUP_RUNS - 1`` more set-ups in fresh processes, spread
    over the run; those can only build the benchmark size.
    """
    workload = WORKLOADS[name](seed, size, workdir)
    setups = [perf_counter() - started]
    if trace:
        untraced = measure(workload, seconds / 2)
        tracer = Tracer()
        with tracer.patched():
            traced = measure(workload, seconds / 2, tracer)
        metrics = per_layer(tracer, traced, untraced)
        timings = [untraced, traced]
    else:
        extra = SETUP_RUNS - 1 if size is None else 0
        sampler = SetupSampler(name, seed, seconds, extra)
        timings = [measure(workload, seconds, between=sampler)]
        metrics = end_to_end(timings[0], setups + sampler.finish())
    failed_checks = workload.final_checks()
    return Result(
        metrics=metrics,
        attempted=sum(t.attempted for t in timings),
        failed=sum(t.failed for t in timings) + len(failed_checks),
        failed_checks=failed_checks,
        env=environment(seed, workload.params),
        digest=workload.digest(),
    )


def report(name: str, result: Result, trace: bool) -> dict:
    """Print the metrics one per line; return the final JSON object."""
    print(f"workload {name}  env {result.env}")
    for metric, (value, unit, note) in result.metrics.items():
        print(f"  {metric:40s} {value:14.6g} {unit:16s} {note}")
    rate = result.failed / result.attempted
    print(f"  {'error_rate':40s} {rate:14.6g} {'ratio':16s} "
          f"{result.failed} failed of {result.attempted} attempted")
    for check in result.failed_checks:
        print(f"  FAILED CHECK: {check}")
    print(f"  output digest {result.digest}")
    if trace and result.metrics["trace.coverage_pct"][0] < COVERAGE_FLOOR:
        print(f"  FLAG: layer spans cover under {COVERAGE_FLOOR:.0f}% of operation time")
    sys.stdout.flush()
    return {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit, _) in result.metrics.items()
        },
    }
