"""Vocabulary, word-level tokenization, and the corpus reader.

One token is one word: acoustic vectors are word-aligned, so a 1:1
token/word mapping keeps that alignment exact. Normalization (NFC,
lowercase, words as runs of Unicode letters and digits joined by
apostrophes, typographic or not) is applied once at ingestion and shared
by training and metrics, which makes WER casing- and
punctuation-insensitive by construction.

A JSONL corpus is the program's only file input: one object per line
with string ``id`` and ``ref``, an optional string ``hyp`` and no other
key, each given once. A UTF-8 byte-order mark, which some editors write
at the start of the file, is ignored. Frames and their word spans are
made in memory (``crossaec.acoustic``).
"""

from __future__ import annotations

import json
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

from crossaec.errors import (
    ConfigurationError,
    CorpusFormatError,
    DegenerateInputError,
    SequenceLengthError,
    VocabularyError,
)
from crossaec.util import as_count, token_ids

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3
SPECIALS = ("<pad>", "<bos>", "<eos>", "<unk>")

_WORD = re.compile(r"[^\W_]+(?:'+[^\W_]+)*")


def normalize_words(text: str) -> List[str]:
    """The lowercased words of NFC ``text``: runs of Unicode letters and
    digits joined by inner apostrophes. A typographic apostrophe (U+2019)
    counts as ``'``; every other character separates words, a combining
    mark that NFC leaves uncomposed (as in Devanagari) included."""
    text = unicodedata.normalize("NFC", text).lower().replace("\u2019", "'")
    return _WORD.findall(text)


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
    for record in records:
        counts.update(record.ref_words)
        counts.update(record.hyp_words)
    if not counts:
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
    if max_seq_len is not None:
        limit = as_count(max_seq_len, "max_seq_len", ConfigurationError)
        if len(ids) > limit:
            raise SequenceLengthError(
                f"sequence of {len(ids)} tokens exceeds max_seq_len {limit}"
            )
    return ids


def decode(vocab: Vocabulary, ids: Sequence[int]) -> List[str]:
    """Ids back to words, stripping PAD/BOS/EOS; UNK renders as a sentinel."""
    stripped = {SPECIALS[i] for i in (PAD_ID, BOS_ID, EOS_ID)}
    return [w for w in map(vocab.word_of, ids) if w not in stripped]


_FIELDS = {"id", "ref", "hyp"}


def _object(pairs: list) -> dict:
    """A JSON object as a dict, refusing a field given twice (plain JSON
    decoding keeps the last value)."""
    payload = dict(pairs)
    if len(payload) < len(pairs):
        counts = Counter(key for key, _ in pairs)
        twice = next(key for key, n in counts.items() if n > 1)
        raise CorpusFormatError(f"duplicate field {twice!r}")
    return payload


# One decoder for every line: ``json.loads`` with a hook builds one per call.
_DECODER = json.JSONDecoder(object_pairs_hook=_object)


def _record(raw: bytes) -> Optional[CorpusRecord]:
    """One corpus line as a record, or None for a blank line."""
    try:
        # "utf-8-sig" would count a bad byte's offset from after the mark.
        line = raw.decode("utf-8").removeprefix("\ufeff").strip()
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(f"not UTF-8 (byte {exc.start}: {exc.reason})") from None
    if not line:
        return None
    try:
        payload = _DECODER.decode(line)
    # The decoder recurses once per nesting level, so a deep line
    # exhausts the recursion limit.
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CorpusFormatError(f"invalid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise CorpusFormatError("record must be an object")
    unknown = sorted(payload.keys() - _FIELDS)
    if unknown:
        raise CorpusFormatError(f"unknown fields {unknown}")
    try:
        rec_id = payload["id"]
        ref = payload["ref"]
    except KeyError as exc:
        raise CorpusFormatError(f"missing field {exc}") from None
    if not isinstance(rec_id, str) or not isinstance(ref, str):
        raise CorpusFormatError("id and ref must be strings")
    hyp = payload.get("hyp", "")
    if not isinstance(hyp, str):
        raise CorpusFormatError("hyp must be a string")
    return CorpusRecord(
        id=rec_id, ref_words=normalize_words(ref), hyp_words=normalize_words(hyp)
    )


def load_corpus(path) -> List[CorpusRecord]:
    """Read one JSON record per line; malformed lines carry line numbers."""
    records = []
    # Bytes, decoded line by line, so a bad byte is reported on its line.
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                record = _record(raw)
            except CorpusFormatError as exc:
                raise CorpusFormatError(f"{path}:{lineno}: {exc}") from None
            if record is not None:
                records.append(record)
    return records
