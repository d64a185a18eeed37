"""Layer spans recorded from outside the program, by patching public callables.

``Tracer.patched()`` replaces each callable in ``TARGETS`` with a wrapper
that records a span (name, start, end, parent) and restores the originals
on exit. Each name is patched where its caller looks it up: methods on
their class, module functions in the module whose attribute the caller
reads (``crossaec.metrics.edit_ops``, which ``MetricsReport.compute``
reaches by global name). Primitives that ``nn.layers`` imports with
``from ... import`` are not reachable this way and are not timed.

Spans are kept in memory for the current operation; ``end_op`` folds them
into per-name inclusive and self times for that operation.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from crossaec import acoustic, metrics, text
from crossaec.nn import layers, optim, tensor

from corrector import Head


def _attention_kind(args, kwargs) -> str:
    query = args[1] if len(args) > 1 else kwargs["query_in"]
    kv = args[2] if len(args) > 2 else kwargs["kv_in"]
    return "self_attention" if kv is query else "cross_attention"


def _decoder_positions(args, kwargs, result) -> tuple:
    batch, length = args[1].data.shape[:2]
    return "nn.layers.decoder_positions", batch * length


def _attention_calls(args, kwargs, result) -> tuple:
    return "nn.layers.attention_calls", 1


def _frames(args, kwargs, result) -> tuple:
    return "acoustic.frames", result[0].shape[0]


def _records(args, kwargs, result) -> tuple:
    return "text.records", len(result)


def _dp_cells(args, kwargs, result) -> tuple:
    return "metrics.dp_cells", (len(args[0]) + 1) * (len(args[1]) + 1)


# (module whose errors a failure counts against, owner, attribute,
#  span name or a function of the call's arguments, counter or None)
TARGETS = (
    ("nn.tensor", tensor.Tensor, "backward", "backward", None),
    ("nn.optim", optim.AdamOptimizer, "step", "adam_step", None),
    ("nn.layers", layers.Encoder, "__call__", "encoder", None),
    ("nn.layers", layers.Decoder, "__call__", "decoder", _decoder_positions),
    ("nn.layers", layers.MultiHeadAttention, "__call__", _attention_kind,
     _attention_calls),
    ("nn.layers", layers.FeedForward, "__call__", "feedforward", None),
    ("nn.layers", layers.LayerNorm, "__call__", "layernorm", None),
    ("nn.layers", layers.Embedding, "__call__", "embedding", None),
    ("nn.layers", Head, "__call__", "head", None),
    ("nn.layers", layers, "cross_entropy_loss", "loss", None),
    ("acoustic", acoustic, "project_features", "project_features", None),
    ("acoustic", acoustic, "synth_frames", "synth_frames", _frames),
    ("acoustic", acoustic, "mean_pool_awe", "mean_pool_awe", None),
    ("acoustic", acoustic, "pad_dsu", "pad_dsu", None),
    ("acoustic", acoustic, "fft_resample", "fft_resample", None),
    ("text", text, "load_corpus", "load_corpus", _records),
    ("text", text, "build_vocab", "build_vocab", None),
    ("text", text, "encode", "encode", None),
    ("metrics", metrics.MetricsReport, "compute", "report", None),
    ("metrics", metrics, "edit_ops", "edit_ops", _dp_cells),
    ("metrics", metrics, "bleu", "bleu", None),
    ("metrics", metrics, "gleu", "gleu", None),
)

MODULES = tuple(dict.fromkeys(target[0] for target in TARGETS))


class Tracer:
    def __init__(self):
        self.counts = defaultdict(int)  # summed over every operation
        self.errors = {module: 0 for module in MODULES}
        self.ops = 0
        self._spans: list = []
        self._stack: list[int] = []
        self._last_error = None

    def _wrap(self, module, fn, name, counter):
        spans, stack = self._spans, self._stack
        prefix = module + "."

        def traced(*args, **kwargs):
            span = prefix + (name if isinstance(name, str) else name(args, kwargs))
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # Count a failure once, in the innermost span it left.
                if exc is not self._last_error:
                    self._last_error = exc
                    self.errors[module] += 1
                raise
            finally:
                spans[index] = (span, start, perf_counter(), parent)
                stack.pop()
            if counter is not None:
                key, amount = counter(args, kwargs, result)
                self.counts[key] += amount
            return result

        return traced

    @contextmanager
    def patched(self):
        """Install a wrapper on every target; restore the originals on exit."""
        saved = []
        try:
            for module, owner, attr, name, counter in TARGETS:
                own = attr in vars(owner)
                raw = vars(owner)[attr] if own else getattr(owner, attr)
                saved.append((owner, attr, own, raw))
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(module, raw.__func__, name, counter))
                else:
                    wrapped = self._wrap(module, raw, name, counter)
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, own, raw in reversed(saved):
                if own:
                    setattr(owner, attr, raw)
                else:
                    delattr(owner, attr)

    def end_op(self) -> tuple[dict, dict, float]:
        """Fold the spans of one finished operation into per-name inclusive
        and self seconds, and the seconds covered by its root spans."""
        inclusive: dict = defaultdict(float)
        self_time: dict = defaultdict(float)
        covered = 0.0
        children = [0.0] * len(self._spans)
        # A child starts after its parent, so it has the larger index.
        for index in range(len(self._spans) - 1, -1, -1):
            name, start, end, parent = self._spans[index]
            duration = end - start
            inclusive[name] += duration
            self_time[name] += duration - children[index]
            if parent < 0:
                covered += duration
            else:
                children[parent] += duration
        self._spans.clear()
        self._stack.clear()
        self.ops += 1
        return inclusive, self_time, covered
