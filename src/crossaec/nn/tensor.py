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
weight array, ``attention`` the padded q/k/v head views, ``probs`` and
its two ``Rows``, ``layer_norm`` ``xhat``, ``inv`` and the gain array,
``embedding_lookup`` the ids and the weight's shape, ``gather_rows`` and
``scatter_rows`` only their ``Rows``, and ``cross_entropy`` ``expd``,
``total``, the ids and the position weights.

The module holds only the ops the corrector runs: ``add``, ``relu``,
``tanh``, ``linear``, ``attention`` (the one softmax), ``layer_norm``,
``embedding_lookup``, ``gather_rows`` and ``scatter_rows`` (an adjoint
pair that packs a batch's real rows into (rows, dim) and puts them back)
and ``cross_entropy`` (the mean loss over the unmasked targets, and the one
scalar reduction: the gradient checks build their losses from it too).
The row pair and ``attention`` take the ``Rows`` a mask marks, and
``attention`` reads packed rows, laying them out padded itself. Masks are
boolean, true on real content; ``util.as_array`` checks them.
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
        gradients are added into the vertices of its inputs. Interior
        gradients are freed once spent, so a second call on the same loss
        adds exactly one more gradient to each leaf; the arrays the VJPs
        read stay alive with the loss.
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
            seen.add(id(vertex))
            stack.append((vertex, True))
            for parent in vertex._parents:
                if parent is not None and id(parent) not in seen:
                    stack.append((parent, False))
        root.grad = np.ones_like(self.data)
        for vertex in reversed(topo):
            if vertex._vjp is not None:
                grads = vertex._vjp(vertex.grad)
                vertex.grad = None
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
    """Sum a gradient back down to the shape it was broadcast from."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(
            f"cannot add shapes {a.data.shape} and {b.data.shape}"
        ) from None
    a_shape, b_shape = a.data.shape, b.data.shape

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
    """The real rows of a batch, as a ``mask`` over its leading axes marks them.
    The mask is checked once, as ``name``; ``padded`` is false if every row is real."""

    __slots__ = ("mask", "index", "padded")

    def __init__(self, mask, name: str):
        self.mask = as_array(mask, bool, name, ShapeError)
        self.index = self.mask.ravel().nonzero()[0]
        self.padded = self.index.size < self.mask.size


def _padded(x: np.ndarray, rows: Rows, name: str) -> np.ndarray:
    """The (*mask.shape, dim) layout, zeros in the padding, of the (rows, dim) real
    rows ``x`` of ``rows``, or ``x`` itself, unchecked, when nothing is padded."""
    if not rows.padded:
        return x
    if x.shape[:-1] != rows.index.shape:
        raise ShapeError(f"{name} {x.shape} is not the {rows.index.size} rows of its mask")
    out = np.zeros((*rows.mask.shape, x.shape[-1]))
    out.reshape(rows.mask.size, x.shape[-1])[rows.index] = x
    return out


def _real(x: np.ndarray, rows: Rows) -> np.ndarray:
    """The (rows, dim) real rows, in order, of ``x`` in the (*mask.shape, dim)
    layout of ``rows``, or ``x`` itself, unchecked, when nothing is padded."""
    if not rows.padded:
        return x
    if x.shape[:-1] != rows.mask.shape or not x.shape:
        raise ShapeError(f"row mask {rows.mask.shape} does not cover the rows of {x.shape}")
    return x.reshape(rows.mask.size, x.shape[-1]).take(rows.index, axis=0)


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
    lead_q, lead_k, dim = queries.mask.shape, keys.mask.shape, qp.shape[-1:]
    fits = qp.shape == lead_q + dim and kp.shape == vp.shape == lead_k + dim
    if not fits or len(lead_q) != 2 or len(lead_k) != 2 or lead_k[0] != lead_q[0]:
        raise ShapeError(
            f"attention needs (batch, length, dim) q, k and v of one batch and dim; "
            f"got q {qp.shape}, k {kp.shape}, v {vp.shape} for masks {lead_q} and {lead_k}"
        )
    (batch, lq), lk, dim = lead_q, lead_k[1], dim[0]
    num_heads = as_count(num_heads, "num_heads", ShapeError)
    if dim < num_heads or dim % num_heads:
        raise ShapeError(f"dim {dim} does not split into {num_heads} heads")
    dh = dim // num_heads
    factor = 1.0 / math.sqrt(dh)
    # (batch, heads, length, d_h) views of the padded inputs.
    qh = qp.reshape(batch, lq, num_heads, dh).swapaxes(1, 2)
    kh = kp.reshape(batch, lk, num_heads, dh).swapaxes(1, 2)
    vh = vp.reshape(batch, lk, num_heads, dh).swapaxes(1, 2)
    logits = qh @ kh.swapaxes(-1, -2)
    logits *= factor
    mask = keys.mask[:, None, None, :]
    if causal:
        # Query i sees keys 0..i, as np.tril would give, but cheaper.
        mask = mask & (np.arange(lk) <= np.arange(lq)[:, None])
    # Broadcasting repeats rows, so checking the unbroadcast mask suffices.
    if not mask.any(axis=-1).all():
        raise DegenerateInputError("attention query with every key masked")
    # Masked keys become -inf, and exp(-inf) is exactly 0.
    probs = np.where(mask, logits, -np.inf)
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)

    def merge(gh, rows):
        return _real(gh.swapaxes(1, 2).reshape(batch, -1, dim), rows)

    def vjp(g):
        gh = _padded(g, queries, "gradient").reshape(batch, lq, num_heads, dh).swapaxes(1, 2)
        gv = merge(probs.swapaxes(-1, -2) @ gh, keys)
        gprobs = gh @ vh.swapaxes(-1, -2)
        glogits = probs * (gprobs - (gprobs * probs).sum(axis=-1, keepdims=True))
        glogits *= factor
        return merge(glogits @ kh, queries), merge(glogits.swapaxes(-1, -2) @ qh, keys), gv

    return _make(merge(probs @ vh, queries), (q, k, v), vjp)


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
    or ``x`` itself, unchecked, when nothing is padded; the VJP scatters them back."""
    if not rows.padded:
        return x

    def vjp(g):
        return (_padded(g, rows, "gradient"),)

    return _make(_real(x.data, rows), (x,), vjp)


def scatter_rows(x: Tensor, rows: Rows) -> Tensor:
    """The (*mask.shape, dim) zeros whose real rows are, in order, the rows
    of a (rows, dim) ``x``, or ``x`` itself, unchecked, when nothing is padded; the VJP
    gathers them back."""
    if not rows.padded:
        return x

    def vjp(g):
        return (_real(g, rows),)

    return _make(_padded(x.data, rows, "scatter_rows input"), (x,), vjp)


def cross_entropy(logits: Tensor, target_ids: np.ndarray, pad_mask: np.ndarray) -> Tensor:
    """Mean negative log-likelihood over the positions where ``pad_mask``, a
    boolean array of the shape of ``target_ids``, is true. Every target id lies
    in [0, vocabulary size)."""
    ids = token_ids(target_ids, logits.data.shape[-1])
    if ids.shape != logits.data.shape[:-1]:
        raise ShapeError(
            f"targets {ids.shape} do not match logits {logits.data.shape}"
        )
    mask = as_array(pad_mask, bool, "pad_mask", ShapeError)
    if mask.shape != ids.shape:
        raise ShapeError(f"pad_mask {mask.shape} does not match targets {ids.shape}")
    count = int(mask.sum())
    if count == 0:
        raise DegenerateInputError("loss over zero unmasked positions")
    w = mask.astype(np.float64) / count
    x = logits.data
    mx = x.max(axis=-1, keepdims=True)
    expd = x - mx
    np.exp(expd, out=expd)
    total = expd.sum(axis=-1, keepdims=True)
    lse = mx[..., 0] + np.log(total[..., 0])
    picked = np.take_along_axis(x, ids[..., None], axis=-1)[..., 0]
    data = np.asarray(((lse - picked) * w).sum())

    def vjp(g):
        probs = expd / total
        at_target = np.take_along_axis(probs, ids[..., None], axis=-1) - 1.0
        np.put_along_axis(probs, ids[..., None], at_target, axis=-1)
        probs *= (w * float(g))[..., None]
        return (probs,)

    return _make(data, (logits,), vjp)
