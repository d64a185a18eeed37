"""Layers and stacks: attention, feed-forward, norms, encoder, decoder.

Layers own their parameters and compose the primitives of ``nn.tensor``:
each ``Linear`` is one ``linear`` node, and ``MultiHeadAttention`` is
four projections around one ``attention`` node, which splits and merges
the heads itself. ``Encoder`` and ``Decoder`` stack one pre-norm
``Block``; decoder blocks add a cross-attention to the memory. Sequence
tensors enter as (batch, length, model_dim); masks are boolean ndarrays
shaped (batch, length) with True on real content, and only ``attention``
turns them, with the causal rule, into score masks.

A stack carries the packed rows of ``nn.tensor.Rows``: it gathers the
real rows of its input and its memory once, so the norms, projections,
feed-forward and residual adds skip the padding and attention reads
packed rows. After the final norm, the ``Decoder`` hands back its rows as
``gather_rows`` leaves them, (rows, model_dim) when its mask pads, so the
output head and ``cross_entropy`` skip the padding too. The ``Encoder``
scatters its rows back to (batch, length, model_dim), where padded rows
read zero, because its caller reads them padded: the benchmark's
corrector adds the padded-form fusion attention to them. Layers check no
mask or row layout themselves: ``nn.tensor``'s ``Rows`` and ops do.
"""

from __future__ import annotations

import math

import numpy as np

from crossaec.errors import ShapeError
from crossaec.nn.config import ModelConfig
from crossaec.nn.params import ParameterStore
from crossaec.nn.tensor import (
    Rows,
    Tensor,
    add,
    attention,
    cross_entropy,
    embedding_lookup,
    gather_rows,
    layer_norm,
    linear,
    relu,
    scatter_rows,
)


def init_uniform(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def sinusoidal_positions(max_len: int, dim: int) -> np.ndarray:
    """Fixed sine/cosine position table, shape (max_len, dim)."""
    positions = np.arange(max_len, dtype=np.float64)[:, None]
    half = np.arange(0, dim, 2, dtype=np.float64)
    rates = np.exp(-math.log(10000.0) * half / dim)
    table = np.zeros((max_len, dim))
    table[:, 0::2] = np.sin(positions * rates)
    table[:, 1::2] = np.cos(positions * rates[: table[:, 1::2].shape[1]])
    return table


class Linear:
    def __init__(
        self,
        store: ParameterStore,
        name: str,
        d_in: int,
        d_out: int,
        rng: np.random.Generator,
        bias: bool = True,
    ):
        self.weight = store.create(
            f"{name}.weight", init_uniform(rng, d_in, (d_in, d_out))
        )
        self.bias = store.create(f"{name}.bias", np.zeros(d_out)) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


class Embedding:
    def __init__(
        self,
        store: ParameterStore,
        name: str,
        vocab_size: int,
        dim: int,
        rng: np.random.Generator,
    ):
        self.weight = store.create(
            f"{name}.weight", init_uniform(rng, dim, (vocab_size, dim))
        )

    def __call__(self, ids: np.ndarray) -> Tensor:
        return embedding_lookup(self.weight, ids)


class LayerNorm:
    def __init__(self, store: ParameterStore, name: str, dim: int):
        self.gain = store.create(f"{name}.gain", np.ones(dim))
        self.offset = store.create(f"{name}.offset", np.zeros(dim))

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gain, self.offset)


class FeedForward:
    def __init__(
        self,
        store: ParameterStore,
        name: str,
        dim: int,
        hidden: int,
        rng: np.random.Generator,
    ):
        self.lin1 = Linear(store, f"{name}.lin1", dim, hidden, rng)
        self.lin2 = Linear(store, f"{name}.lin2", hidden, dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.lin2(relu(self.lin1(x)))


class MultiHeadAttention:
    """Projected multi-head attention over batched sequences."""

    def __init__(
        self,
        store: ParameterStore,
        name: str,
        dim: int,
        num_heads: int,
        rng: np.random.Generator,
    ):
        self.num_heads = num_heads
        self.q_proj = Linear(store, f"{name}.q_proj", dim, dim, rng)
        # A key bias shifts every logit in a softmax row equally, so its
        # gradient is identically zero; omit the dead parameter.
        self.k_proj = Linear(store, f"{name}.k_proj", dim, dim, rng, bias=False)
        self.v_proj = Linear(store, f"{name}.v_proj", dim, dim, rng)
        self.o_proj = Linear(store, f"{name}.o_proj", dim, dim, rng)

    def __call__(
        self, query_in: Tensor, kv_in: Tensor, key_mask, causal=False, queries: Rows | None = None
    ) -> Tensor:
        """Attend from ``query_in`` to ``kv_in``. Packed form: ``queries`` and
        ``key_mask`` are the ``Rows`` of the queries and keys, and the inputs
        and output hold their rows as ``gather_rows`` leaves them. Padded form
        (``queries`` None): (batch, length, dim) inputs and output, a boolean
        (batch, keys) ``key_mask``, and every query row real."""
        if queries is None:
            key_mask = Rows(key_mask, "key_mask")
            queries = Rows(np.ones(query_in.data.shape[:-1], dtype=bool), "queries")
            kv_in = gather_rows(kv_in, key_mask)
        q, k, v = self.q_proj(query_in), self.k_proj(kv_in), self.v_proj(kv_in)
        return self.o_proj(attention(q, k, v, self.num_heads, queries, key_mask, causal))


class Block:
    """Pre-norm block; a decoder block is causal and cross-attends to memory."""

    def __init__(self, store, name, config: ModelConfig, rng, decoder: bool):
        d, heads = config.model_dim, config.num_heads
        self.self_norm = LayerNorm(store, f"{name}.self_norm", d)
        self.self_attn = MultiHeadAttention(store, f"{name}.self_attn", d, heads, rng)
        self.decoder = decoder
        if decoder:
            self.cross_norm = LayerNorm(store, f"{name}.cross_norm", d)
            self.cross_attn = MultiHeadAttention(store, f"{name}.cross_attn", d, heads, rng)
        self.ff_norm = LayerNorm(store, f"{name}.ff_norm", d)
        self.ff = FeedForward(store, f"{name}.ff", d, config.feedforward_dim, rng)

    def __call__(self, x: Tensor, rows: Rows, memory: tuple[Rows, Tensor] | None) -> Tensor:
        """One block over the packed rows ``x`` of ``rows``; a decoder block
        also attends to ``memory``, the ``Rows`` and packed rows of a memory."""
        normed = self.self_norm(x)
        x = add(x, self.self_attn(normed, normed, rows, self.decoder, rows))
        if self.decoder:
            memory_rows, memory = memory
            x = add(x, self.cross_attn(self.cross_norm(x), memory, memory_rows, False, rows))
        return add(x, self.ff(self.ff_norm(x)))


class _Stack:
    """Blocks, then a final norm; each subclass sets ``decoder`` for its blocks.
    A decoder needs a memory and its mask, and an encoder takes neither. A
    decoder returns its packed rows, an encoder the padded batch."""

    def __init__(self, store, name, config: ModelConfig, rng):
        count = config.decoder_layers if self.decoder else config.encoder_layers
        self.blocks = [
            Block(store, f"{name}.blocks.{i}", config, rng, self.decoder)
            for i in range(count)
        ]
        self.final_norm = LayerNorm(store, f"{name}.final_norm", config.model_dim)

    def __call__(self, x: Tensor, mask, memory=None, memory_mask=None) -> Tensor:
        if self.decoder and memory is None:
            raise ShapeError("a Decoder needs a memory")
        if not self.decoder and (memory is not None or memory_mask is not None):
            raise ShapeError("an Encoder takes no memory or memory_mask")
        rows = Rows(mask, "mask")
        x = gather_rows(x, rows)
        if self.decoder:
            memory_rows = Rows(memory_mask, "memory_mask")
            memory = memory_rows, gather_rows(memory, memory_rows)
        for block in self.blocks:
            x = block(x, rows, memory)
        x = self.final_norm(x)
        return x if self.decoder else scatter_rows(x, rows)


class Encoder(_Stack):
    """Pre-norm self-attention stack producing contextual word embeddings."""

    decoder = False


class Decoder(_Stack):
    """Causal decoder stack attending to a fused memory."""

    decoder = True


# The loss under a layer's name, only so the benchmark's tracer can patch and
# time it as ``nn.layers.loss``; ROADMAP item 17 removes it.
cross_entropy_loss = cross_entropy
