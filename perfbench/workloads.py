"""Seeded inputs and the three workloads: train, decode and evaluate.

A workload owns a pool of items (``items``); one operation is ``run`` on
one item, and one pass runs every item once. Items of a pool differ in
content and, for decode and evaluate, in length, but every pool of a
given size holds the same multiset of lengths whatever the seed, so the
work of one pass is the same for every seed and counts per pass repeat
exactly.

``check`` tests one operation's output and ``final_checks`` the run as a
whole; the measuring loop calls both outside its timed region.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from crossaec import acoustic, metrics, text
from crossaec.nn.config import ModelConfig, OptimizerConfig
from crossaec.nn.optim import AdamOptimizer
from crossaec.util import stable_hash

import reference
from corrector import Corrector

SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
ERROR_RATE = 0.15  # per reference word, split evenly over S, I and D
NOISE_SIGMA = 0.3  # frame noise around each word's prototype
REFERENCE_EVERY = 6  # evaluate checks every sixth shard against reference.py
FRAMES_PER_WORD = 4  # acoustic frames per word in train and decode
LEARNING_RATE = 2e-3
DECODE_COPIES = 2  # decode utterances per hypothesis length
EVALUATE_FRAMES_PER_WORD = (3, 4, 5, 6, 7, 8)
EVALUATE_HYP_OFFSETS = (-1, 0, 0, 1)  # hypothesis length minus reference length
LOGIT_TOL = 1e-9  # decode: a recomputed logit may differ by rounding only


def make_rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed, *stream.encode()])


def make_lexicon(rng: np.random.Generator, size: int) -> list[str]:
    """``size`` distinct pseudo-words of two or three syllables."""
    words: dict[str, None] = {}
    while len(words) < size:
        count = int(rng.integers(2, 4))
        words["".join(rng.choice(SYLLABLES, size=count))] = None
    return list(words)


class WordSampler:
    """Zipf-distributed words over a lexicon, as in natural text."""

    def __init__(self, rng: np.random.Generator, lexicon: list[str]):
        self.rng = rng
        self.lexicon = lexicon
        weights = 1.0 / np.arange(1, len(lexicon) + 1)
        self.cdf = np.cumsum(weights) / weights.sum()

    def words(self, count: int) -> list[str]:
        picks = np.searchsorted(self.cdf, self.rng.random(count), side="right")
        return [self.lexicon[min(i, len(self.lexicon) - 1)] for i in picks.tolist()]

    def corrupt(self, ref: list[str], hyp_len: int) -> list[str]:
        """A seeded ASR hypothesis: substitute, delete or insert after each
        reference word with probability ``ERROR_RATE`` in all, redrawn
        until it has ``hyp_len`` words."""
        while True:
            # 0 substitute, 1 delete, 2 insert after, 3 keep
            kinds = np.minimum(self.rng.random(len(ref)) * 3.0 / ERROR_RATE, 3.0)
            kinds = kinds.astype(np.int64).tolist()
            if len(ref) - kinds.count(1) + kinds.count(2) == hyp_len:
                break
        spare = iter(self.words(kinds.count(0) + kinds.count(2)))
        hyp: list[str] = []
        for word, kind in zip(ref, kinds):
            if kind == 0:
                hyp.append(next(spare))
            elif kind == 2:
                hyp += [word, next(spare)]
            elif kind == 3:
                hyp.append(word)
        return hyp


def make_prototypes(rng, lexicon, feature_dim: int) -> acoustic.PrototypeTable:
    return acoustic.PrototypeTable(
        prototypes={w: rng.normal(0.0, 1.0, feature_dim) for w in lexicon},
        noise_sigma=NOISE_SIGMA,
    )


@dataclass(frozen=True)
class ModelSize:
    """The desk shape: about 250k parameters at V=500."""

    vocab: int = 500
    model_dim: int = 64
    num_heads: int = 4
    layers: int = 2
    feedforward_dim: int = 128
    feature_dim: int = 16
    max_seq_len: int = 48

    def config(self, seed: int) -> ModelConfig:
        return ModelConfig(
            model_dim=self.model_dim,
            num_heads=self.num_heads,
            encoder_layers=self.layers,
            decoder_layers=self.layers,
            feedforward_dim=self.feedforward_dim,
            max_seq_len=self.max_seq_len,
            vocab_size=self.vocab,
            seed=seed,
            feature_dim=self.feature_dim,
        )


class _CorrectorInputs:
    """Lexicon, vocabulary, prototypes and the corrector for train/decode."""

    def __init__(self, seed: int, model: ModelSize):
        rng = make_rng(seed, "lexicon")
        self.lexicon = make_lexicon(rng, model.vocab - len(text.SPECIALS))
        self.vocab = text.Vocabulary(self.lexicon)
        self.sampler = WordSampler(make_rng(seed, "words"), self.lexicon)
        self.table = make_prototypes(make_rng(seed, "acoustic"), self.lexicon, model.feature_dim)
        self.frame_seeds = make_rng(seed, "frames")
        self.model = Corrector(model.config(seed))
        self.params = self.model.store.num_values()

    def word_vectors(self, words) -> np.ndarray:
        """Mean-pooled acoustic vectors of the spoken words, one row per word."""
        seed = int(self.frame_seeds.integers(2**62))
        frames, bounds = acoustic.synth_frames(words, self.table, FRAMES_PER_WORD, seed)
        return acoustic.mean_pool_awe(frames, bounds)


@dataclass(frozen=True)
class TrainSize:
    batch: int = 16
    length: int = 24
    batches: int = 24
    model: ModelSize = field(default_factory=ModelSize)


@dataclass
class Batch:
    src: np.ndarray
    src_mask: np.ndarray
    dsu: np.ndarray
    dsu_mask: np.ndarray
    tgt_in: np.ndarray
    tgt_out: np.ndarray
    tgt_mask: np.ndarray


class TrainWorkload:
    """One teacher-forced Adam step of the corrector per operation.

    Row k of every batch has a reference of ``length - 2 - k % (length - 3)``
    words and a hypothesis of the same length, so the source (with BOS and
    EOS) and the target (with BOS or EOS) fit ``length``.
    """

    def __init__(self, seed: int, size: TrainSize | None = None, workdir=None):
        size = size or TrainSize()
        self.size = size
        inputs = _CorrectorInputs(seed, size.model)
        self.model = inputs.model
        self.params = inputs.params
        self.optimizer = AdamOptimizer(
            self.model.store, OptimizerConfig(learning_rate=LEARNING_RATE)
        )
        self.items = [self._batch(inputs) for _ in range(size.batches)]
        self.tokens = [int(b.tgt_mask.sum()) for b in self.items]
        self.losses: list[float] = []
        self.run(self.items[0])

    def _batch(self, inputs: _CorrectorInputs) -> Batch:
        size = self.size
        shape = (size.batch, size.length)
        src, tgt_in, tgt_out = (np.zeros(shape, dtype=np.int64) for _ in range(3))
        dsu = np.zeros(shape + (size.model.feature_dim,))
        dsu_mask = np.zeros(shape, dtype=bool)
        lengths = np.zeros(size.batch, dtype=np.int64)
        for k in range(size.batch):
            n = size.length - 2 - k % (size.length - 3)
            ref = inputs.sampler.words(n)
            hyp = inputs.sampler.corrupt(ref, n)
            ref_ids = text.encode(inputs.vocab, ref)
            src[k, : n + 2] = text.encode(inputs.vocab, hyp, add_bos_eos=True)
            tgt_in[k, : n + 1] = [text.BOS_ID] + ref_ids
            tgt_out[k, : n + 1] = ref_ids + [text.EOS_ID]
            vectors = inputs.word_vectors(ref)
            padded = acoustic.pad_dsu(vectors, size.length)
            dsu[k], dsu_mask[k] = padded.vectors, padded.pad_mask
            lengths[k] = n
        positions = np.arange(size.length)[None, :]
        return Batch(
            src=src,
            src_mask=positions < (lengths + 2)[:, None],
            dsu=dsu,
            dsu_mask=dsu_mask,
            tgt_in=tgt_in,
            tgt_out=tgt_out,
            tgt_mask=positions < (lengths + 1)[:, None],
        )

    def run(self, batch: Batch) -> float:
        self.model.store.zero_grad()
        loss = self.model.loss(batch)
        loss.backward()
        self.optimizer.step()
        return float(loss.data)

    def check(self, index: int, loss: float) -> bool:
        self.losses.append(loss)
        return math.isfinite(loss)

    def final_checks(self) -> list[str]:
        """The mean loss of the last pass is below that of the first."""
        n = len(self.items)
        if len(self.losses) < 2 * n:
            return ["train: fewer than two passes"]
        if not np.mean(self.losses[-n:]) < np.mean(self.losses[:n]):
            return ["train: loss did not fall"]
        return []

    def digest(self) -> str:
        return stable_hash(self.losses)


@dataclass(frozen=True)
class DecodeSize:
    min_words: int = 8
    max_words: int = 31
    model: ModelSize = field(default_factory=ModelSize)


class DecodeWorkload:
    """Greedy decoding of one utterance at batch 1 per operation.

    The pool holds ``DECODE_COPIES`` utterances of each hypothesis length from
    ``min_words`` to ``max_words``, in seeded order; each decodes exactly
    its hypothesis length plus EOS tokens.
    """

    def __init__(self, seed: int, size: DecodeSize | None = None, workdir=None):
        size = size or DecodeSize()
        inputs = _CorrectorInputs(seed, size.model)
        self.model = inputs.model
        self.params = inputs.params
        self.vocab_size = size.model.vocab
        lengths = make_rng(seed, "order").permutation(
            np.repeat(np.arange(size.min_words, size.max_words + 1), DECODE_COPIES)
        )
        self.items = []
        for n in lengths.tolist():
            ref = inputs.sampler.words(n)
            hyp = inputs.sampler.corrupt(ref, n)
            src = text.encode(inputs.vocab, hyp, add_bos_eos=True)
            vectors = inputs.word_vectors(ref)
            self.items.append((src, vectors, n + 1))
        self.tokens = [budget for _, _, budget in self.items]
        self.first: dict[int, list[int]] = {}
        self.run(self.items[0])

    def run(self, item) -> list[int]:
        src, vectors, budget = item
        return self.model.greedy(src, vectors, budget)

    def check(self, index: int, ids: list[int]) -> bool:
        expected = self.first.setdefault(index, ids)
        return (
            len(ids) == self.items[index][2]
            and all(0 <= i < self.vocab_size for i in ids)
            and ids == expected
        )

    def final_checks(self) -> list[str]:
        """One teacher-forced pass over each decoded utterance picks its
        decoded ids: the top logit at every position, within ``LOGIT_TOL``."""
        failed = []
        for index, ids in sorted(self.first.items()):
            src, vectors, _ = self.items[index]
            logits = self.model.forced_logits(src, vectors, ids)
            picked = logits[np.arange(len(ids)), ids]
            if not (picked >= logits.max(axis=1) - LOGIT_TOL).all():
                failed.append(f"decode: utterance {index} is not its own greedy decode")
        return failed

    def digest(self) -> str:
        return stable_hash([self.first[i] for i in sorted(self.first)])


@dataclass(frozen=True)
class EvaluateSize:
    shards: int = 48
    utterances: int = 16
    min_words: int = 32
    lexicon: int = 2000
    feature_dim: int = 16


@dataclass
class Shard:
    path: str
    pairs: list  # (ref words, hyp words) as generated
    frames: dict  # record id -> (frames per word, synth seed)


class EvaluateWorkload:
    """The offline pipeline over one JSONL shard per operation.

    ``load_corpus``, ``build_vocab`` and ``encode``; per utterance
    ``synth_frames`` -> ``mean_pool_awe`` -> ``pad_dsu`` (DSU arm) and
    ``fft_resample`` to the encoded length (continuous arm); then
    ``MetricsReport.compute`` over the (ref, hyp) pairs. Utterance k of a
    shard has ``min_words + k`` reference words, a hypothesis
    ``EVALUATE_HYP_OFFSETS[k % 4]`` words longer, and
    ``EVALUATE_FRAMES_PER_WORD[k % 6]`` frames per word; the shard's seed
    shuffles these triples.
    """

    def __init__(self, seed: int, size: EvaluateSize | None = None, workdir=None):
        size = size or EvaluateSize()
        self.size = size
        self.params = None
        lexicon = make_lexicon(make_rng(seed, "lexicon"), size.lexicon)
        sampler = WordSampler(make_rng(seed, "words"), lexicon)
        self.table = make_prototypes(make_rng(seed, "acoustic"), lexicon, size.feature_dim)
        longest = size.min_words + size.utterances - 1
        self.pad_len = longest + 2  # room for BOS and EOS
        shapes = [
            (
                size.min_words + k,
                size.min_words + k + EVALUATE_HYP_OFFSETS[k % len(EVALUATE_HYP_OFFSETS)],
                EVALUATE_FRAMES_PER_WORD[k % len(EVALUATE_FRAMES_PER_WORD)],
            )
            for k in range(size.utterances)
        ]
        order = make_rng(seed, "order")
        frame_seeds = make_rng(seed, "frames")
        workdir = Path(workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        self.items = []
        for s in range(size.shards):
            shard = Shard(str(workdir / f"shard-{s}.jsonl"), [], {})
            lines = []
            for u in order.permutation(len(shapes)).tolist():
                n, m, fpw = shapes[u]
                ref = sampler.words(n)
                hyp = sampler.corrupt(ref, m)
                rec_id = f"s{s}-u{u}"
                shard.pairs.append((ref, hyp))
                shard.frames[rec_id] = (fpw, int(frame_seeds.integers(2**62)))
                lines.append(json.dumps({"id": rec_id, "ref": " ".join(ref), "hyp": " ".join(hyp)}))
            Path(shard.path).write_text("\n".join(lines) + "\n", encoding="utf-8")
            self.items.append(shard)
        self.tokens = [sum(len(ref) for ref, _ in shard.pairs) for shard in self.items]
        self.first: dict[int, dict] = {}
        self.run(self.items[0])

    def run(self, shard: Shard):
        records = text.load_corpus(shard.path)
        vocab = text.build_vocab(records)
        pairs, ids, dsus, continuous = [], [], [], []
        for record in records:
            hyp_ids = text.encode(vocab, record.hyp_words, add_bos_eos=True)
            ref_ids = text.encode(vocab, record.ref_words, add_bos_eos=True)
            fpw, seed = shard.frames[record.id]
            frames, bounds = acoustic.synth_frames(record.ref_words, self.table, fpw, seed)
            awe = acoustic.mean_pool_awe(frames, bounds)
            dsus.append(acoustic.pad_dsu(awe, self.pad_len))
            continuous.append(acoustic.fft_resample(frames, len(hyp_ids)))
            pairs.append((record.ref_words, record.hyp_words))
            ids.append((ref_ids, hyp_ids))
        return metrics.MetricsReport.compute(pairs), len(vocab), pairs, ids, dsus, continuous

    def check(self, index: int, out) -> bool:
        report, vocab_len, pairs, ids, dsus, continuous = out
        if pairs != self.items[index].pairs:
            return False
        for (ref, hyp), (ref_ids, hyp_ids), dsu, cont in zip(
            pairs, ids, dsus, continuous
        ):
            if not (
                len(ref_ids) == len(ref) + 2
                and len(hyp_ids) == len(hyp) + 2
                and all(text.UNK_ID < i < vocab_len for i in ref_ids[1:-1] + hyp_ids[1:-1])
                and dsu.vectors.shape == (self.pad_len, self.size.feature_dim)
                and int(dsu.pad_mask.sum()) == len(ref)
                and cont.shape == (len(hyp) + 2, self.size.feature_dim)
                and np.isfinite(dsu.vectors).all()
                and np.isfinite(cont).all()
            ):
                return False
        got = report.to_dict()
        return got == self.first.setdefault(index, got)

    def final_checks(self) -> list[str]:
        """A sample of the shards' reports against the brute-force
        reference, and an identical (ref, ref) corpus scoring WER 0."""
        failed = []
        for index, got in sorted(self.first.items())[::REFERENCE_EVERY]:
            if not reference.same_report(got, reference.report(self.items[index].pairs)):
                failed.append(f"evaluate: shard {index} differs from the reference")
        refs = [(ref, ref) for ref, _ in self.items[0].pairs]
        if metrics.MetricsReport.compute(refs).wer != 0.0:
            failed.append("evaluate: (ref, ref) pairs do not score WER 0")
        return failed

    def digest(self) -> str:
        return stable_hash([self.first[i] for i in sorted(self.first)])


WORKLOADS = {
    "train": TrainWorkload,
    "decode": DecodeWorkload,
    "evaluate": EvaluateWorkload,
}
