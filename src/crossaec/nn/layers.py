"""Layers and stacks: attention, feed-forward, norms, encoder, decoder.

Layers own their parameters and compose the primitives of ``nn.tensor``:
each ``Linear`` is one ``linear`` node, and ``MultiHeadAttention`` is
four projections around one ``attention`` node, which splits and merges
the heads itself. All sequence tensors are batched as (batch, length,
model_dim); masks are boolean ndarrays shaped (batch, length) with True
on real content.
"""

from __future__ import annotations

import math

import numpy as np

from crossaec.errors import DegenerateInputError, ShapeError, VocabularyError
from crossaec.nn.config import ModelConfig
from crossaec.nn.params import ParameterStore
from crossaec.nn.tensor import (
    Tensor,
    add,
    attention,
    cross_entropy,
    embedding_lookup,
    layer_norm,
    linear,
    relu,
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


def _token_ids(ids, vocab_size: int) -> np.ndarray:
    """``ids`` as an int64 array, every one checked to lie in [0, vocab_size)."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):
        raise VocabularyError(f"token id outside vocabulary of size {vocab_size}")
    return ids


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
        self.vocab_size = vocab_size
        self.weight = store.create(
            f"{name}.weight", init_uniform(rng, dim, (vocab_size, dim))
        )

    def __call__(self, ids: np.ndarray) -> Tensor:
        return embedding_lookup(self.weight, _token_ids(ids, self.vocab_size))


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
        self,
        query_in: Tensor,
        kv_in: Tensor,
        key_mask: np.ndarray,
        causal: bool = False,
    ) -> Tensor:
        batch, lq, _ = query_in.data.shape
        lk = kv_in.data.shape[1]
        mask = np.asarray(key_mask, dtype=bool)
        if mask.shape != (batch, lk):
            raise ShapeError(f"key_mask {mask.shape} is not ({batch}, {lk})")
        mask = mask[:, None, :]
        if causal:
            # Query i sees keys 0..i, as np.tril would give, but cheaper.
            mask = mask & (np.arange(lk) <= np.arange(lq)[:, None])
        mixed = attention(
            self.q_proj(query_in),
            self.k_proj(kv_in),
            self.v_proj(kv_in),
            self.num_heads,
            mask,
        )
        return self.o_proj(mixed)


class EncoderLayer:
    def __init__(self, store, name, config: ModelConfig, rng):
        d = config.model_dim
        self.norm1 = LayerNorm(store, f"{name}.norm1", d)
        self.self_attn = MultiHeadAttention(
            store, f"{name}.self_attn", d, config.num_heads, rng
        )
        self.norm2 = LayerNorm(store, f"{name}.norm2", d)
        self.ff = FeedForward(
            store, f"{name}.ff", d, config.feedforward_dim, rng
        )

    def __call__(self, x: Tensor, pad_mask: np.ndarray) -> Tensor:
        normed = self.norm1(x)
        x = add(x, self.self_attn(normed, normed, key_mask=pad_mask))
        x = add(x, self.ff(self.norm2(x)))
        return x


class Encoder:
    """Pre-norm self-attention stack producing contextual word embeddings."""

    def __init__(self, store, name, config: ModelConfig, rng):
        self.layers = [
            EncoderLayer(store, f"{name}.layers.{i}", config, rng)
            for i in range(config.encoder_layers)
        ]
        self.final_norm = LayerNorm(store, f"{name}.final_norm", config.model_dim)

    def __call__(self, x: Tensor, pad_mask: np.ndarray) -> Tensor:
        for layer in self.layers:
            x = layer(x, pad_mask)
        return self.final_norm(x)


class DecoderLayer:
    def __init__(self, store, name, config: ModelConfig, rng):
        d = config.model_dim
        self.norm1 = LayerNorm(store, f"{name}.norm1", d)
        self.self_attn = MultiHeadAttention(
            store, f"{name}.self_attn", d, config.num_heads, rng
        )
        self.norm2 = LayerNorm(store, f"{name}.norm2", d)
        self.cross_attn = MultiHeadAttention(
            store, f"{name}.cross_attn", d, config.num_heads, rng
        )
        self.norm3 = LayerNorm(store, f"{name}.norm3", d)
        self.ff = FeedForward(
            store, f"{name}.ff", d, config.feedforward_dim, rng
        )

    def __call__(
        self, x: Tensor, self_mask: np.ndarray, memory: Tensor, memory_mask: np.ndarray
    ) -> Tensor:
        normed = self.norm1(x)
        x = add(
            x, self.self_attn(normed, normed, key_mask=self_mask, causal=True)
        )
        x = add(
            x,
            self.cross_attn(self.norm2(x), memory, key_mask=memory_mask),
        )
        x = add(x, self.ff(self.norm3(x)))
        return x


class Decoder:
    """Causal decoder stack attending to a fused memory."""

    def __init__(self, store, name, config: ModelConfig, rng):
        self.layers = [
            DecoderLayer(store, f"{name}.layers.{i}", config, rng)
            for i in range(config.decoder_layers)
        ]
        self.final_norm = LayerNorm(store, f"{name}.final_norm", config.model_dim)

    def __call__(
        self, x: Tensor, self_mask: np.ndarray, memory: Tensor, memory_mask: np.ndarray
    ) -> Tensor:
        for layer in self.layers:
            x = layer(x, self_mask, memory, memory_mask)
        return self.final_norm(x)


def cross_entropy_loss(
    logits: Tensor, target_ids: np.ndarray, pad_mask: np.ndarray
) -> Tensor:
    """Mean negative log-likelihood over the unmasked positions."""
    mask = np.asarray(pad_mask, dtype=bool)
    if mask.shape != logits.data.shape[:-1]:
        raise ShapeError(f"mask {mask.shape} does not match logits {logits.data.shape}")
    total = int(mask.sum())
    if total == 0:
        raise DegenerateInputError("loss over zero unmasked positions")
    weights = mask.astype(np.float64) / total
    ids = _token_ids(target_ids, logits.data.shape[-1])
    return cross_entropy(logits, ids, weights)
