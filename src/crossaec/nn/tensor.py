"""Reverse-mode automatic differentiation over float64 numpy arrays.

A tensor is in the graph iff it has a vertex: a leaf that requires grad is
its own, and an op output with any such input gets a ``_Vertex``. A VJP
returns one gradient per input; ``Tensor.backward`` replays the VJPs in
reverse topological order and keeps the gradients of inputs with a vertex.
All math is 64-bit: the finite-difference acceptance gate depends on it.

The graph holds no arrays of its own: a VJP keeps only the arrays its
formula reads, so an op output that no VJP reads is freed as soon as the
caller drops it. ``add`` keeps only shapes, ``relu`` its ``keep`` mask,
``tanh`` its own output, ``linear`` the 2D view of its input and the
weight array, ``attention`` the padded q/k/v head views, ``probs`` (its
softmax, key-major: (keys, batch, heads, queries)) and its two ``Rows``,
``layer_norm`` ``xhat``, ``inv`` and the gain array, ``embedding_lookup``
the ids and the weight's shape, ``gather_rows`` and ``scatter_rows`` only
their ``Rows``, and ``cross_entropy`` the softmax of its logits and their
target ids.

Backward consumes the graph: each VJP runs once and is dropped as soon as
it has run, so the arrays it kept are freed while backward goes on. One
backward per graph: a second one through a spent vertex, on the same loss
or on another loss that shares it, raises ``StateError`` before it writes
any gradient. Gradients are read-only: ``add``'s VJP hands one array to
both its inputs, so after ``cross_entropy(add(a, b), ...).backward()``,
``a.grad is b.grad``. No VJP writes into the gradient it is given, and
``backward`` adds gradients into new arrays.

The module holds only the ops the corrector runs: ``add`` (of equal
shapes, or of a shape and its trailing part, as a position table meets a
batch; no other broadcast), ``relu``, ``tanh``, ``linear``, ``attention``,
``layer_norm``, ``embedding_lookup``, ``gather_rows`` and ``scatter_rows``
(an adjoint pair that packs a batch's real rows into (rows, dim) and puts
them back) and ``cross_entropy`` (the mean loss over the unmasked targets,
and the one scalar reduction: the gradient checks build their losses from
it too). ``attention`` and ``cross_entropy`` share one softmax,
``_softmax``, over the axis each names: ``attention``'s scores are
key-major, so its max and sum run over the outer axis in whole-row passes,
several times faster in numpy than over a short last axis;
``cross_entropy`` reduces over the classes, its last axis. Masks are
boolean, true on real content; ``Rows`` reads every mask, and ``_check``
is the one test that an array holds the rows of its ``Rows``.
``attention``'s q, k and v and ``cross_entropy``'s logits are packed rows
as ``gather_rows`` leaves them: (rows, dim) when the mask pads, else
(*mask.shape, dim). ``attention`` lays them out padded itself, and
``cross_entropy`` never sees the padding.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Optional

import numpy as np

from crossaec.errors import DegenerateInputError, ShapeError, StateError
from crossaec.util import as_array, as_count, token_ids

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable graph construction inside the block (inference paths)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class _Vertex:
    """The graph record of one op output: its gradient while backward runs,
    the vertices of its inputs (None for an input outside the graph) and
    the VJP, which maps the output's gradient to one per input."""

    __slots__ = ("grad", "_parents", "_vjp")

    def __init__(self, parents: tuple, vjp: Callable[[np.ndarray], tuple]):
        self.grad: Optional[np.ndarray] = None
        self._parents = parents
        self._vjp = vjp


class Tensor:
    """A finite float64 ndarray plus an optional gradient and graph vertex,
    the one record of whether it gets a gradient (``requires_grad``)."""

    __slots__ = ("data", "grad", "_vertex")
    # A leaf is its own vertex: no parents and no VJP.
    _parents: tuple = ()
    _vjp = None

    def __init__(self, data, requires_grad: bool = False):
        self.data = as_array(data, float, "tensor data", ShapeError)
        self.grad: Optional[np.ndarray] = None
        self._vertex = self if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        return self._vertex is not None

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable leaf.

        Each vertex's VJP runs once, in reverse topological order, and its
        gradients are added into the vertices of its inputs; a scalar leaf
        adds 1 to its own. Backward consumes the graph: a VJP is dropped
        once it has run, freeing the arrays it kept (``cross_entropy``'s
        softmax among them), and each interior gradient
        once spent. A second backward that reaches a spent vertex raises
        ``StateError`` before any gradient is written.
        """
        if self.data.size != 1:
            raise ShapeError("backward requires a scalar loss")
        root = self._vertex
        if root is None:
            raise StateError("backward on a tensor with no recorded graph")
        topo: list = []
        seen: set[int] = set()
        stack: list = [(root, False)]
        while stack:
            vertex, expanded = stack.pop()
            if expanded:
                topo.append(vertex)
                continue
            if id(vertex) in seen:
                continue
            if type(vertex) is _Vertex and vertex._vjp is None:
                raise StateError("backward through a graph that backward already consumed")
            seen.add(id(vertex))
            stack.append((vertex, True))
            for parent in vertex._parents:
                if parent is not None and id(parent) not in seen:
                    stack.append((parent, False))
        one = np.ones_like(self.data)
        root.grad = one if root.grad is None else root.grad + one
        for vertex in reversed(topo):
            if vertex._vjp is not None:
                grads = vertex._vjp(vertex.grad)
                vertex._vjp = vertex.grad = None
                for parent, g in zip(vertex._parents, grads):
                    if parent is not None:
                        parent.grad = g if parent.grad is None else parent.grad + g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def constant(data) -> Tensor:
    """A tensor that never receives gradients (masks, position tables)."""
    return Tensor(data, requires_grad=False)


def _make(data: np.ndarray, parents: tuple, vjp: Callable) -> Tensor:
    """Wrap an op result, with a vertex when any parent has one.

    ``vjp`` returns one gradient per parent, in order; ``backward`` drops
    those of parents without a vertex. Every op computes float64 ``data``
    from float64 inputs, so the result skips ``Tensor.__init__``'s
    conversion.
    """
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._vertex = None
    if _GRAD_ENABLED:
        vertices = tuple(p._vertex for p in parents)
        if any(v is not None for v in vertices):
            out._vertex = _Vertex(vertices, vjp)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` over the leading axes that ``shape``, a trailing part of ``g.shape``, lacks."""
    extra = g.ndim - len(shape)
    return g.sum(axis=tuple(range(extra))) if extra else g


def add(a: Tensor, b: Tensor) -> Tensor:
    """``a + b`` of equal shapes, or of two shapes where one is the trailing part of
    the other (a (length, dim) position table added to every sequence of a batch)."""
    a_shape, b_shape = a.data.shape, b.data.shape
    if a_shape != b_shape:
        short, long = (a_shape, b_shape) if len(a_shape) < len(b_shape) else (b_shape, a_shape)
        if long[len(long) - len(short):] != short:
            raise ShapeError(f"cannot add shapes {a_shape} and {b_shape}")
    data = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _make(data, (a, b), vjp)


def relu(a: Tensor) -> Tensor:
    keep = a.data > 0
    data = np.maximum(a.data, 0.0)

    def vjp(g):
        return (g * keep,)

    return _make(data, (a,), vjp)


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)

    def vjp(g):
        return (g * (1.0 - data * data),)

    return _make(data, (a,), vjp)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``x @ weight + bias`` over the last axis of ``x``, as one graph node.

    The leading axes of ``x`` fold into rows, so the forward pass and
    each gradient are single 2D matrix products; a (rows, d_in) ``x`` of
    packed rows is already in that form.
    """
    w = weight.data
    x_shape = x.data.shape
    if w.ndim != 2 or not x_shape or x_shape[-1] != w.shape[0]:
        raise ShapeError(f"linear input {x_shape} does not match 2D weight {w.shape}")
    d_in, d_out = w.shape
    if bias is not None and bias.data.shape != (d_out,):
        raise ShapeError(
            f"linear bias {bias.data.shape} does not match {d_out} outputs"
        )
    x2 = x.data.reshape(-1, d_in)
    out = x2 @ w
    if bias is not None:
        out += bias.data
    parents = (x, weight) if bias is None else (x, weight, bias)
    has_bias = bias is not None

    def vjp(g):
        g2 = g.reshape(-1, d_out)
        grads = (g2 @ w.T).reshape(x_shape), x2.T @ g2
        return (*grads, g2.sum(axis=0)) if has_bias else grads

    return _make(out.reshape(*x_shape[:-1], d_out), parents, vjp)


class Rows:
    """The real rows of a batch, as a ``mask`` over its leading axes marks them: the
    one reader of masks, named ``name`` in errors; ``padded`` is false if every row is real."""

    __slots__ = ("mask", "name", "index", "padded")

    def __init__(self, mask, name: str):
        self.mask = as_array(mask, bool, name, ShapeError)
        self.name = name
        self.index = self.mask.ravel().nonzero()[0]
        self.padded = self.index.size < self.mask.size


def _check(x: np.ndarray, rows: Rows, name: str, packed: bool = True) -> None:
    """The one layout check: ``x`` must hold the rows of ``rows`` packed, as ``gather_rows``
    leaves them ((rows, dim) if the mask pads), or, unless ``packed``, as (*mask.shape, dim)."""
    lead = rows.index.shape if packed and rows.padded else rows.mask.shape
    if x.shape[:-1] != lead or not x.shape:
        raise ShapeError(f"{name} {x.shape} is not {lead} rows of {rows.name} {rows.mask.shape}")


def _padded(x: np.ndarray, rows: Rows, name: str) -> np.ndarray:
    """The (*mask.shape, dim) layout, zeros in the padding, of ``x``, the rows of ``rows``
    as ``gather_rows`` leaves them: (rows, dim) if the mask pads, else ``x`` itself."""
    _check(x, rows, name)
    if not rows.padded:
        return x
    out = np.zeros((*rows.mask.shape, x.shape[-1]))
    out.reshape(rows.mask.size, x.shape[-1])[rows.index] = x
    return out


def _real(x: np.ndarray, rows: Rows, name: str) -> np.ndarray:
    """The (rows, dim) real rows, in order, of ``x`` in the (*mask.shape, dim)
    layout of ``rows``, or ``x`` itself when nothing is padded."""
    _check(x, rows, name, packed=False)
    if not rows.padded:
        return x
    return x.reshape(rows.mask.size, x.shape[-1]).take(rows.index, axis=0)


def _softmax(x: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Softmax ``x`` in place over ``axis``, max-shifted; return the maxima and exp sums."""
    mx = x.max(axis=axis, keepdims=True)
    x -= mx
    np.exp(x, out=x)
    total = x.sum(axis=axis, keepdims=True)
    x /= total
    return mx, total


def attention(
    q: Tensor, k: Tensor, v: Tensor, num_heads: int, queries: Rows, keys: Rows, causal=False
) -> Tensor:
    """Multi-head ``softmax(q k^T / sqrt(d_h)) v`` as one graph node.

    ``q`` holds the rows of ``queries``, and ``k`` and ``v`` those of ``keys``,
    as ``gather_rows`` leaves them: (rows, dim) when the mask pads, else
    (batch, length, dim). The op lays them out padded, splits each into
    ``num_heads`` heads of width ``d_h = dim / num_heads``, merges the heads
    and returns the query rows laid out as ``q``. ``keys.mask``, (batch, lk),
    is the one key mask; with ``causal``, query i also sees only keys 0..i.
    This is the one place the padding and causal masks are built; masked
    keys get exactly zero weight.
    """
    qp = _padded(q.data, queries, "attention q")
    kp, vp = _padded(k.data, keys, "attention k"), _padded(v.data, keys, "attention v")
    lead_q, lead_k, dim = queries.mask.shape, keys.mask.shape, qp.shape[-1]
    fits = kp.shape[-1] == vp.shape[-1] == dim and len(lead_q) == len(lead_k) == 2
    if not fits or lead_k[0] != lead_q[0]:
        raise ShapeError(
            f"attention needs (batch, length, dim) q, k and v of one batch and dim; "
            f"got q {qp.shape}, k {kp.shape}, v {vp.shape} for masks {lead_q} and {lead_k}"
        )
    (batch, lq), lk = lead_q, lead_k[1]
    num_heads = as_count(num_heads, "num_heads", ShapeError)
    if dim < num_heads or dim % num_heads:
        raise ShapeError(f"dim {dim} does not split into {num_heads} heads")
    dh = dim // num_heads
    factor = 1.0 / math.sqrt(dh)
    # (batch, heads, length, d_h) views of the padded inputs.
    qh = qp.reshape(batch, lq, num_heads, dh).swapaxes(1, 2)
    kh = kp.reshape(batch, lk, num_heads, dh).swapaxes(1, 2)
    vh = vp.reshape(batch, lk, num_heads, dh).swapaxes(1, 2)
    # Key-major scores: the softmax reduces over the outer axis, which numpy
    # does in whole-row passes, not over a short last axis.
    probs = np.empty((lk, batch, num_heads, lq))
    np.matmul(kh, qh.swapaxes(-1, -2), out=probs.transpose(1, 2, 0, 3))
    probs *= factor
    mask = keys.mask.T[:, :, None, None] if keys.padded else None
    if causal:
        # Query i sees keys 0..i, as np.tril would give, but cheaper.
        seen = (np.arange(lk)[:, None] <= np.arange(lq))[:, None, None, :]
        mask = seen if mask is None else mask & seen
    # Broadcasting repeats rows, so checking the unbroadcast mask suffices.
    if not (lk if mask is None else mask.any(axis=0).all()):
        raise DegenerateInputError("attention query with every key masked")
    if mask is not None:
        # Masked keys become -inf, and exp(-inf) is exactly 0.
        np.copyto(probs, -np.inf, where=~mask)
    _softmax(probs, 0)

    def merge(gh, rows):
        return _real(gh.swapaxes(1, 2).reshape(batch, -1, dim), rows, "attention output")

    def vjp(g):
        gh = _padded(g, queries, "gradient").reshape(batch, lq, num_heads, dh).swapaxes(1, 2)
        gv = merge(probs.transpose(1, 2, 0, 3) @ gh, keys)
        # probs * (gprobs - (gprobs * probs).sum(keys)) * factor, in place over
        # the key-major gprobs = v gh^T.
        glogits = np.empty_like(probs)
        np.matmul(vh, gh.swapaxes(-1, -2), out=glogits.transpose(1, 2, 0, 3))
        glogits -= (glogits * probs).sum(axis=0)
        glogits *= probs
        glogits *= factor
        gq = merge(glogits.transpose(1, 2, 3, 0) @ kh, queries)
        return gq, merge(glogits.transpose(1, 2, 0, 3) @ qh, keys), gv

    return _make(merge(probs.transpose(1, 2, 3, 0) @ vh, queries), (q, k, v), vjp)


LAYER_NORM_EPS = 1e-5


def layer_norm(x: Tensor, gain: Tensor, offset: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (variance plus
    ``LAYER_NORM_EPS``), then rescale by a (d,) gain and offset."""
    if not x.data.shape or not x.data.shape[-1]:
        raise ShapeError(f"layer_norm input {x.data.shape} has no last axis to normalize")
    n = x.data.shape[-1]
    if gain.data.shape != (n,) or offset.data.shape != (n,):
        raise ShapeError(
            f"layer_norm gain {gain.data.shape} and offset {offset.data.shape} "
            f"are not ({n},)"
        )
    # sum / n is what ndarray.mean computes, without its wrapper's cost.
    mu = x.data.sum(axis=-1, keepdims=True) / n
    xhat = x.data - mu
    var = (xhat * xhat).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= inv
    gain_data = gain.data
    data = xhat * gain_data
    data += offset.data

    def vjp(g):
        ggain = _unbroadcast(g * xhat, (n,))
        goffset = _unbroadcast(g, (n,))
        gx = g * gain_data
        mean_gx = gx.sum(axis=-1, keepdims=True) / n
        mean_gx_xhat = (gx * xhat).sum(axis=-1, keepdims=True) / n
        gx -= mean_gx
        gx -= xhat * mean_gx_xhat
        gx *= inv
        return gx, ggain, goffset

    return _make(data, (x, gain, offset), vjp)


def embedding_lookup(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Rows of a 2D ``weight`` picked by token ids in [0, vocabulary size)."""
    shape = weight.data.shape
    if len(shape) != 2:
        raise ShapeError(f"embedding weight {shape} is not 2D")
    ids = token_ids(ids, shape[0])
    data = weight.data[ids]

    def vjp(g):
        gw = np.zeros(shape)
        np.add.at(gw, ids.reshape(-1), g.reshape(-1, shape[-1]))
        return (gw,)

    return _make(data, (weight,), vjp)


def gather_rows(x: Tensor, rows: Rows) -> Tensor:
    """The (rows, dim) real rows of a (*mask.shape, dim) ``x``, in order,
    or ``x`` itself when nothing is padded; the VJP scatters them back."""
    data = _real(x.data, rows, "gather_rows input")
    if not rows.padded:
        return x

    def vjp(g):
        return (_padded(g, rows, "gradient"),)

    return _make(data, (x,), vjp)


def scatter_rows(x: Tensor, rows: Rows) -> Tensor:
    """The (*mask.shape, dim) zeros whose real rows are, in order, the rows of a
    (rows, dim) ``x``, or ``x`` itself when nothing is padded; the VJP gathers them back."""
    data = _padded(x.data, rows, "scatter_rows input")
    if not rows.padded:
        return x

    def vjp(g):
        return (_real(g, rows, "gradient"),)

    return _make(data, (x,), vjp)


def cross_entropy(logits: Tensor, target_ids: np.ndarray, pad_mask: np.ndarray) -> Tensor:
    """Mean negative log-likelihood over the positions where ``pad_mask``, a
    boolean array of the shape of ``target_ids``, is true. Every target id lies
    in [0, vocabulary size). ``logits`` holds the rows of ``pad_mask`` as
    ``gather_rows`` leaves them: (rows, classes) when the mask pads, else
    (*mask.shape, classes). The loss is the mean of the real rows' terms,
    summed in packed order, so the padding width does not change it."""
    x, rows = logits.data, Rows(pad_mask, "pad_mask")
    _check(x, rows, "logits")
    shape, classes = x.shape, x.shape[-1]
    ids = token_ids(target_ids, classes)
    if ids.shape != rows.mask.shape:
        raise ShapeError(f"targets {ids.shape} do not match pad_mask {rows.mask.shape}")
    if not rows.index.size:
        raise DegenerateInputError("loss over zero unmasked positions")
    w = 1.0 / rows.index.size
    targets = ids.reshape(-1, 1).take(rows.index, axis=0)
    probs = x.reshape(-1, classes).copy()
    picked = np.take_along_axis(probs, targets, axis=-1)[:, 0]
    mx, total = _softmax(probs, -1)
    data = np.asarray(((mx[:, 0] + np.log(total[:, 0]) - picked) * w).sum())

    def vjp(g):
        # In place: this VJP runs once, and probs is its own.
        scale = w * float(g)
        at_target = (np.take_along_axis(probs, targets, axis=-1) - 1.0) * scale
        np.multiply(probs, scale, out=probs)
        np.put_along_axis(probs, targets, at_target, axis=-1)
        return (probs.reshape(shape),)

    return _make(data, (logits,), vjp)
