"""The DSU-fused corrector the benchmark drives, built from public layers.

The package has no model or decode loop yet, so this module stands in for
them, in the shape the roadmap gives: token embedding plus sinusoidal
positions feed the ``Encoder``; the word-aligned acoustic vectors go through
``project_features`` and the encoder output cross-attends to them
(``MultiHeadAttention``); the ``Decoder`` attends to that fused memory and a
``Linear`` head gives the logits.

Every layer is reached through a module or class attribute (``layers.X``,
``acoustic.X``), so the tracer can time it by patching that attribute.
"""

from __future__ import annotations

import numpy as np

from crossaec import acoustic
from crossaec.nn import layers, tensor
from crossaec.nn.config import ModelConfig
from crossaec.nn.params import ParameterStore
from crossaec.text import BOS_ID


class Head(layers.Linear):
    """The output projection.

    A class of its own only so that the tracer can time it apart from the
    ``Linear`` layers inside attention and feed-forward.
    """


class Corrector:
    def __init__(self, config: ModelConfig):
        rng = np.random.default_rng(config.seed)
        d = config.model_dim
        self.store = ParameterStore()
        self.embed = layers.Embedding(self.store, "embed", config.vocab_size, d, rng)
        self.positions = layers.sinusoidal_positions(config.max_seq_len, d)
        self.encoder = layers.Encoder(self.store, "encoder", config, rng)
        self.feature_weight = self.store.create(
            "fusion.proj.weight",
            layers.init_uniform(rng, config.feature_dim, (config.feature_dim, d)),
        )
        self.feature_bias = self.store.create("fusion.proj.bias", np.zeros(d))
        self.fusion = layers.MultiHeadAttention(
            self.store, "fusion.attn", d, config.num_heads, rng
        )
        self.decoder = layers.Decoder(self.store, "decoder", config, rng)
        self.head = Head(self.store, "head", d, config.vocab_size, rng)

    def _embed(self, ids: np.ndarray) -> tensor.Tensor:
        pos = tensor.constant(self.positions[: ids.shape[1]])
        return tensor.add(self.embed(ids), pos)

    def memory(self, src, src_mask, dsu, dsu_mask) -> tensor.Tensor:
        """Encoder states plus their cross-attention over the projected DSUs."""
        enc = self.encoder(self._embed(src), src_mask)
        feats = acoustic.project_features(
            tensor.constant(dsu), self.feature_weight, self.feature_bias
        )
        return tensor.add(enc, self.fusion(enc, feats, key_mask=dsu_mask))

    def logits(self, memory, src_mask, tgt_in, tgt_mask) -> tensor.Tensor:
        hidden = self.decoder(self._embed(tgt_in), tgt_mask, memory, src_mask)
        return self.head(hidden)

    def loss(self, batch) -> tensor.Tensor:
        memory = self.memory(batch.src, batch.src_mask, batch.dsu, batch.dsu_mask)
        logits = self.logits(memory, batch.src_mask, batch.tgt_in, batch.tgt_mask)
        return layers.cross_entropy_loss(logits, batch.tgt_out, batch.tgt_mask)

    def _utterance(self, src_ids, dsu: np.ndarray):
        """Memory and source mask of one utterance at batch 1."""
        src = np.asarray(src_ids, dtype=np.int64)[None, :]
        src_mask = np.ones(src.shape, dtype=bool)
        dsu_mask = np.ones((1, dsu.shape[0]), dtype=bool)
        return self.memory(src, src_mask, dsu[None], dsu_mask), src_mask

    def _prefix_logits(self, memory, src_mask, prefix) -> np.ndarray:
        ids = np.asarray(prefix, dtype=np.int64)[None, :]
        return self.logits(memory, src_mask, ids, np.ones(ids.shape, dtype=bool)).data[0]

    def greedy(self, src_ids, dsu: np.ndarray, budget: int) -> list[int]:
        """Greedily decode exactly ``budget`` tokens for one utterance.

        The encoder and fusion run once; the decoder and head rerun on the
        whole prefix for every token. The budget, not an EOS from the
        untrained model, ends the loop, so the work depends only on the
        input lengths.
        """
        prefix = [BOS_ID]
        with tensor.no_grad():
            memory, src_mask = self._utterance(src_ids, dsu)
            for _ in range(budget):
                logits = self._prefix_logits(memory, src_mask, prefix)
                prefix.append(int(np.argmax(logits[-1])))
        return prefix[1:]

    def forced_logits(self, src_ids, dsu: np.ndarray, ids: list[int]) -> np.ndarray:
        """Logits at every position of one teacher-forced pass that feeds
        ``ids`` after BOS; row k scores the token after ``ids[:k]``."""
        with tensor.no_grad():
            memory, src_mask = self._utterance(src_ids, dsu)
            return self._prefix_logits(memory, src_mask, [BOS_ID] + ids[:-1])
