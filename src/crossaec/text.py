"""Vocabulary, word-level tokenization, and the corpus reader.

One token is one word: acoustic vectors are word-aligned, so a 1:1
token/word mapping keeps that alignment exact. Normalization (lowercase,
strip punctuation except apostrophes) is applied once at ingestion and
shared by training and metrics, which makes WER casing- and
punctuation-insensitive by construction.

A JSONL corpus is the program's only file input: one object per line
with string ``id`` and ``ref``, an optional string ``hyp`` and no other
key. Frames and their word spans are made in memory (``crossaec.acoustic``).
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

from crossaec.errors import (
    CorpusFormatError,
    DegenerateInputError,
    SequenceLengthError,
    VocabularyError,
)
from crossaec.util import token_ids

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3
SPECIALS = ("<pad>", "<bos>", "<eos>", "<unk>")

_KEEP = re.compile(r"[^a-z0-9' ]+")


def normalize_words(text: str) -> List[str]:
    """Lowercase, drop punctuation except apostrophes, split on whitespace."""
    cleaned = _KEEP.sub(" ", text.lower())
    return [w.strip("'") for w in cleaned.split() if w.strip("'")]


class Vocabulary:
    """Bijective word<->id map with fixed special ids PAD/BOS/EOS/UNK."""

    def __init__(self, words: Sequence[str]):
        self._id_to_word: List[str] = list(SPECIALS) + list(words)
        self._word_to_id = {w: i for i, w in enumerate(self._id_to_word)}
        if len(self._word_to_id) != len(self._id_to_word):
            raise VocabularyError("duplicate words in vocabulary")

    def __len__(self) -> int:
        return len(self._id_to_word)

    def id_of(self, word: str) -> int:
        return self._word_to_id.get(word, UNK_ID)

    def word_of(self, idx: int) -> str:
        return self._id_to_word[int(token_ids(idx, len(self)))]

    def to_list(self) -> List[str]:
        return list(self._id_to_word)

    @classmethod
    def from_list(cls, id_to_word: Sequence[str]) -> "Vocabulary":
        if tuple(id_to_word[: len(SPECIALS)]) != SPECIALS:
            raise VocabularyError("vocabulary list must start with the specials")
        return cls(id_to_word[len(SPECIALS):])


@dataclass(frozen=True)
class CorpusRecord:
    """One utterance: reference words and hypothesis words."""

    id: str
    ref_words: List[str]
    hyp_words: List[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.ref_words:
            raise CorpusFormatError(f"record {self.id!r} has an empty reference")


def build_vocab(records: Iterable[CorpusRecord]) -> Vocabulary:
    """Frequency-then-lexicographic vocabulary over all corpus words."""
    counts: Counter = Counter()
    empty = True
    for record in records:
        empty = False
        counts.update(record.ref_words)
        counts.update(record.hyp_words)
    if empty:
        raise DegenerateInputError("cannot build a vocabulary from an empty corpus")
    return Vocabulary(sorted(counts, key=lambda w: (-counts[w], w)))


def encode(
    vocab: Vocabulary,
    words: Sequence[str],
    add_bos_eos: bool = False,
    max_seq_len: Optional[int] = None,
) -> List[int]:
    ids = [vocab.id_of(w) for w in words]
    if add_bos_eos:
        ids = [BOS_ID] + ids + [EOS_ID]
    if max_seq_len is not None and len(ids) > max_seq_len:
        raise SequenceLengthError(
            f"sequence of {len(ids)} tokens exceeds max_seq_len {max_seq_len}"
        )
    return ids


def decode(vocab: Vocabulary, ids: Sequence[int]) -> List[str]:
    """Ids back to words, stripping PAD/BOS/EOS; UNK renders as a sentinel."""
    stripped = {SPECIALS[i] for i in (PAD_ID, BOS_ID, EOS_ID)}
    return [w for w in map(vocab.word_of, ids) if w not in stripped]


_FIELDS = {"id", "ref", "hyp"}


def _record_from_payload(payload: dict, where: str) -> CorpusRecord:
    unknown = sorted(payload.keys() - _FIELDS)
    if unknown:
        raise CorpusFormatError(f"{where}: unknown fields {unknown}")
    try:
        rec_id = payload["id"]
        ref = payload["ref"]
    except KeyError as exc:
        raise CorpusFormatError(f"{where}: missing field {exc}") from None
    if not isinstance(rec_id, str) or not isinstance(ref, str):
        raise CorpusFormatError(f"{where}: id and ref must be strings")
    hyp = payload.get("hyp", "")
    if not isinstance(hyp, str):
        raise CorpusFormatError(f"{where}: hyp must be a string")
    try:
        return CorpusRecord(
            id=rec_id, ref_words=normalize_words(ref), hyp_words=normalize_words(hyp)
        )
    except CorpusFormatError as exc:
        raise CorpusFormatError(f"{where}: {exc}") from None


def load_corpus(path) -> List[CorpusRecord]:
    """Read one JSON record per line; malformed lines carry line numbers."""
    records = []
    # Bytes, decoded line by line, so a bad byte is reported on its line.
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise CorpusFormatError(
                    f"{path}:{lineno}: not UTF-8 (byte {exc.start}: {exc.reason})"
                ) from None
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"{path}:{lineno}: invalid JSON ({exc})") from None
            if not isinstance(payload, dict):
                raise CorpusFormatError(f"{path}:{lineno}: record must be an object")
            records.append(_record_from_payload(payload, f"{path}:{lineno}"))
    return records

