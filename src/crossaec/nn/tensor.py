"""Reverse-mode automatic differentiation over float64 numpy arrays.

Every primitive stores a vector-Jacobian closure; ``Tensor.backward``
replays them in reverse topological order. All math is 64-bit: the
finite-difference acceptance gate depends on it.

The module holds only the ops the corrector runs: ``add``, ``relu``,
``tanh``, ``linear``, ``attention`` (the one softmax), ``layer_norm``,
``embedding_lookup`` and ``cross_entropy`` (the mean loss over the
unmasked targets), plus ``tensor_sum``, the scalar reduction the gradient
checks build their losses from. Masks are boolean arrays, true on real
content; ``util.as_array`` refuses any other values.
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


class Tensor:
    """A float64 ndarray plus an optional gradient and backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._vjp: Optional[Callable[[np.ndarray], None]] = None

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable leaf."""
        if self.data.size != 1:
            raise ShapeError("backward requires a scalar loss")
        if not self.requires_grad:
            raise StateError("backward on a tensor with no recorded graph")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._vjp is not None:
                node._vjp(node.grad)
                # Interior grads are spent: freeing them keeps memory down
                # and makes a second backward add exactly one more gradient.
                node.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def constant(data) -> Tensor:
    """A tensor that never receives gradients (masks, position tables)."""
    return Tensor(data, requires_grad=False)


def _make(data: np.ndarray, parents: tuple, vjp: Callable) -> Tensor:
    """Wrap an op result, recording the graph only when it matters.

    Every op computes float64 ``data`` from float64 inputs, so the result
    skips ``Tensor.__init__``'s conversion.
    """
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    out._parents = ()
    out._vjp = None
    if _GRAD_ENABLED:
        for parent in parents:
            if parent.requires_grad:
                out.requires_grad = True
                out._parents = parents
                out._vjp = vjp
                break
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


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
    data = a.data + b.data

    def vjp(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _make(data, (a, b), vjp)


def relu(a: Tensor) -> Tensor:
    keep = a.data > 0
    data = np.where(keep, a.data, 0.0)

    def vjp(g):
        _accumulate(a, np.where(keep, g, 0.0))

    return _make(data, (a,), vjp)


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)

    def vjp(g):
        _accumulate(a, g * (1.0 - data * data))

    return _make(data, (a,), vjp)


def tensor_sum(a: Tensor) -> Tensor:
    data = np.asarray(a.data.sum())

    def vjp(g):
        _accumulate(a, np.broadcast_to(g, a.data.shape).copy())

    return _make(data, (a,), vjp)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``x @ weight + bias`` over the last axis of ``x``, as one graph node.

    The leading axes of ``x`` fold into rows, so the forward pass and
    each gradient are single 2D matrix products.
    """
    d_in, d_out = weight.data.shape
    if x.data.shape[-1] != d_in:
        raise ShapeError(
            f"linear input {x.data.shape} does not match weight {weight.data.shape}"
        )
    if bias is not None and bias.data.shape != (d_out,):
        raise ShapeError(
            f"linear bias {bias.data.shape} does not match {d_out} outputs"
        )
    lead = x.data.shape[:-1]
    x2 = x.data.reshape(-1, d_in)
    out = x2 @ weight.data
    if bias is not None:
        out += bias.data
    parents = (x, weight) if bias is None else (x, weight, bias)

    def vjp(g):
        g2 = g.reshape(-1, d_out)
        if x.requires_grad:
            _accumulate(x, (g2 @ weight.data.T).reshape(x.data.shape))
        if weight.requires_grad:
            _accumulate(weight, x2.T @ g2)
        if bias is not None:
            _accumulate(bias, g2.sum(axis=0))

    return _make(out.reshape(*lead, d_out), parents, vjp)


def attention(
    q: Tensor, k: Tensor, v: Tensor, num_heads: int, key_mask: np.ndarray, causal=False
) -> Tensor:
    """Multi-head ``softmax(q k^T / sqrt(d_h)) v`` as one graph node.

    ``q`` is (batch, lq, dim); ``k`` and ``v`` are (batch, lk, dim). Each
    is split into ``num_heads`` heads of width ``d_h = dim / num_heads``,
    and the heads are merged back into (batch, lq, dim). ``key_mask`` is
    a boolean (batch, lk) array, true on real keys; with ``causal``,
    query i also sees only keys 0..i. This is the one place the padding
    and causal masks are built; masked keys get exactly zero weight.
    """
    if (
        q.data.ndim != 3
        or k.data.ndim != 3
        or k.data.shape[::2] != q.data.shape[::2]
        or v.data.shape != k.data.shape
    ):
        raise ShapeError(
            f"attention needs (batch, length, dim) q, k and v with one batch "
            f"and dim and keys and values of one length; got q {q.data.shape}, "
            f"k {k.data.shape}, v {v.data.shape}"
        )
    batch, lq, dim = q.data.shape
    lk = k.data.shape[1]
    num_heads = as_count(num_heads, "num_heads", ShapeError)
    if dim % num_heads:
        raise ShapeError(f"dim {dim} does not split into {num_heads} heads")
    key_mask = as_array(key_mask, bool, "key_mask", ShapeError)
    if key_mask.shape != (batch, lk):
        raise ShapeError(f"key_mask {key_mask.shape} is not ({batch}, {lk})")
    dh = dim // num_heads
    factor = 1.0 / math.sqrt(dh)
    # (batch, heads, length, d_h) views of the projected inputs.
    qh = q.data.reshape(batch, lq, num_heads, dh).swapaxes(1, 2)
    kh = k.data.reshape(batch, lk, num_heads, dh).swapaxes(1, 2)
    vh = v.data.reshape(batch, lk, num_heads, dh).swapaxes(1, 2)
    logits = qh @ kh.swapaxes(-1, -2)
    logits *= factor
    mask = key_mask[:, None, None, :]
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
    out = (probs @ vh).swapaxes(1, 2).reshape(batch, lq, dim)

    def merge(gh):
        return gh.swapaxes(1, 2).reshape(batch, -1, dim)

    def vjp(g):
        gh = g.reshape(batch, lq, num_heads, dh).swapaxes(1, 2)
        if v.requires_grad:
            _accumulate(v, merge(probs.swapaxes(-1, -2) @ gh))
        gprobs = gh @ vh.swapaxes(-1, -2)
        glogits = probs * (gprobs - (gprobs * probs).sum(axis=-1, keepdims=True))
        glogits *= factor
        if q.requires_grad:
            _accumulate(q, merge(glogits @ kh))
        if k.requires_grad:
            _accumulate(k, merge(glogits.swapaxes(-1, -2) @ qh))

    return _make(out, (q, k, v), vjp)


LAYER_NORM_EPS = 1e-5


def layer_norm(x: Tensor, gain: Tensor, offset: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (variance plus
    ``LAYER_NORM_EPS``), then rescale."""
    n = x.data.shape[-1]
    # sum / n is what ndarray.mean computes, without its wrapper's cost.
    mu = x.data.sum(axis=-1, keepdims=True) / n
    xhat = x.data - mu
    var = (xhat * xhat).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= inv
    data = xhat * gain.data
    data += offset.data

    def vjp(g):
        _accumulate(gain, _unbroadcast(g * xhat, gain.data.shape))
        _accumulate(offset, _unbroadcast(g, offset.data.shape))
        gx = g * gain.data
        mean_gx = gx.sum(axis=-1, keepdims=True) / n
        mean_gx_xhat = (gx * xhat).sum(axis=-1, keepdims=True) / n
        gx -= mean_gx
        gx -= xhat * mean_gx_xhat
        gx *= inv
        _accumulate(x, gx)

    return _make(data, (x, gain, offset), vjp)


def embedding_lookup(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Rows of ``weight`` picked by token ids in [0, vocabulary size)."""
    ids = token_ids(ids, weight.data.shape[0])
    data = weight.data[ids]

    def vjp(g):
        gw = np.zeros_like(weight.data)
        np.add.at(gw, ids.reshape(-1), g.reshape(-1, weight.data.shape[-1]))
        _accumulate(weight, gw)

    return _make(data, (weight,), vjp)


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
        _accumulate(logits, probs)

    return _make(data, (logits,), vjp)
