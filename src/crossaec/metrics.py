"""Reference metrics: WER from a Levenshtein alignment, BLEU, and GLEU.

WER, BLEU, and GLEU are reported on a 0..100 scale. The same alignment
drives WER and the per-type error counts.

``MetricsReport.compute`` scores a corpus in one pass, and is the only
source of WER. Its words are mapped to integers once. The Levenshtein
tables of all pairs are built together in numpy, one reference row per
step, in chunks of pairs sorted by length; a per-pair backtrace in
Python then reads off the S/I/D counts. Each sentence's 1..4-grams are
counted once, and the clipped matches feed both BLEU's corpus totals and
the sentence GLEU overlap. ``edit_ops``, ``bleu`` and ``gleu`` call the
same table, backtrace and n-gram code.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from crossaec.errors import DegenerateInputError

Pair = Tuple[Sequence[str], Sequence[str]]
IdPair = Tuple[List[int], List[int]]

# Pairs whose Levenshtein tables are built in one numpy pass.
CHUNK_PAIRS = 64
# Longest n-gram of BLEU and GLEU.
MAX_N = 4

MATCH = "match"
SUBSTITUTE = "substitute"
INSERT = "insert"
DELETE = "delete"


@dataclass(frozen=True)
class EditOp:
    kind: str
    ref_index: int  # position in ref (or the gap before it, for inserts)
    hyp_index: int


def _word_ids(pairs: Iterable[Pair]) -> List[IdPair]:
    """Map the words of every pair to integers, one id per distinct word."""
    ids: Dict[str, int] = {}

    def encode(words: Sequence[str]) -> List[int]:
        return [ids.setdefault(w, len(ids)) for w in words]

    return [(encode(ref), encode(hyp)) for ref, hyp in pairs]


def _distance_tables(id_pairs: Sequence[IdPair]) -> np.ndarray:
    """Levenshtein tables of a chunk of pairs, built together.

    Shape (K, N+1, M+1) for the longest ref N and hyp M. Pair k's table is
    the corner ``[:n_k+1, :m_k+1]``: a cell depends only on the cells above
    and to its left, so the padding (sentinels -1 and -2, which never
    match) cannot reach it. Each reference row is one numpy step: the
    diagonal and up moves by ``np.minimum``, then the chain of insertions
    along the row by ``minimum.accumulate(row - j) + j``.
    """
    count = len(id_pairs)
    rows = max(len(ref) for ref, _ in id_pairs)
    cols = max(len(hyp) for _, hyp in id_pairs)
    ref_ids = np.full((count, rows), -1, dtype=np.int64)
    hyp_ids = np.full((count, cols), -2, dtype=np.int64)
    for k, (ref, hyp) in enumerate(id_pairs):
        ref_ids[k, : len(ref)] = ref
        hyp_ids[k, : len(hyp)] = hyp
    differ = ref_ids[:, :, None] != hyp_ids[:, None, :]
    steps = np.arange(cols + 1, dtype=np.int64)
    dist = np.empty((count, rows + 1, cols + 1), dtype=np.int64)
    dist[:, 0] = steps
    for i in range(1, rows + 1):
        prev, row = dist[:, i - 1], dist[:, i]
        row[:, 0] = i
        np.minimum(prev[:, :-1] + differ[:, i - 1], prev[:, 1:] + 1, out=row[:, 1:])
        np.minimum.accumulate(row - steps, axis=1, out=row)
        row += steps
    return dist


def _backtrace(
    dist: List[List[int]], ref: Sequence[int], hyp: Sequence[int]
) -> List[str]:
    """Edit kinds of the alignment in ref order, ties broken as ``edit_ops`` says."""
    kinds: List[str] = []
    i, j = len(ref), len(hyp)
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            same = ref[i - 1] == hyp[j - 1]
            if dist[i][j] == dist[i - 1][j - 1] + (0 if same else 1):
                kinds.append(MATCH if same else SUBSTITUTE)
                i -= 1
                j -= 1
                continue
        if i > 0 and dist[i][j] == dist[i - 1][j] + 1:
            kinds.append(DELETE)
            i -= 1
            continue
        kinds.append(INSERT)
        j -= 1
    kinds.reverse()
    return kinds


def _edit_kinds(id_pairs: Sequence[IdPair]) -> List[List[str]]:
    """The backtraced edit kinds of every pair, in input order.

    Pairs are sorted by length and tabled ``CHUNK_PAIRS`` at a time, so
    little of a table is padding and its memory stays bounded.
    """
    kinds: List[List[str]] = [[] for _ in id_pairs]
    order = sorted(
        range(len(id_pairs)),
        key=lambda k: (len(id_pairs[k][0]), len(id_pairs[k][1])),
    )
    for start in range(0, len(order), CHUNK_PAIRS):
        chunk = order[start : start + CHUNK_PAIRS]
        tables = _distance_tables([id_pairs[k] for k in chunk])
        for k, table in zip(chunk, tables):
            ref, hyp = id_pairs[k]
            kinds[k] = _backtrace(
                table[: len(ref) + 1, : len(hyp) + 1].tolist(), ref, hyp
            )
    return kinds


def edit_ops(ref_words: Sequence[str], hyp_words: Sequence[str]) -> Tuple[EditOp, ...]:
    """Unit-cost Levenshtein alignment: the edit script turning ref into hyp.

    Ties break in favor of match > substitute > delete > insert, applied
    during backtrace from the end, which makes the alignment (not just
    its cost) deterministic.
    """
    ops: List[EditOp] = []
    i = j = 0
    for kind in _edit_kinds(_word_ids([(ref_words, hyp_words)]))[0]:
        ops.append(EditOp(kind, i, j))
        i += kind != INSERT
        j += kind != DELETE
    return tuple(ops)


def _ngram_counts(words: Sequence) -> Counter:
    """Every 1..MAX_N-gram of a sentence in one Counter (orders never collide)."""
    counts: Counter = Counter()
    for n in range(1, MAX_N + 1):
        counts.update(zip(*[words[k:] for k in range(n)]))
    return counts


def _clipped_matches(ref: Sequence, hyp: Sequence) -> List[int]:
    """Hyp n-grams found in ref, clipped to the ref count, per order 1..MAX_N."""
    ref_counts = _ngram_counts(ref)
    matched = [0] * (MAX_N + 1)
    for gram, count in _ngram_counts(hyp).items():
        found = ref_counts.get(gram)
        if found:
            matched[len(gram)] += min(count, found)
    return matched


def _grams(length: int, n: int) -> int:
    return max(length - n + 1, 0)


def _gleu_of(overlap: int, ref_len: int, hyp_len: int) -> float:
    """Sentence GLEU: min(n-gram precision, n-gram recall) over the
    pooled 1..MAX_N grams."""
    ref_total = sum(_grams(ref_len, n) for n in range(1, MAX_N + 1))
    hyp_total = sum(_grams(hyp_len, n) for n in range(1, MAX_N + 1))
    if ref_total == 0 or hyp_total == 0:
        return 0.0
    return min(overlap / hyp_total, overlap / ref_total)


def _ngram_scores(
    pairs: Iterable[Tuple[Sequence, Sequence]]
) -> Tuple[float, float, int]:
    """BLEU, the reference-weighted sum of sentence GLEU, and the reference
    word count, from one n-gram count per sentence.

    BLEU smoothing: for n >= 2 only, add one to numerator and denominator
    when either is zero at the corpus level (tiny corpora otherwise hit
    log 0).
    """
    matched = [0] * (MAX_N + 1)
    total = [0] * (MAX_N + 1)
    ref_len = hyp_len = 0
    weighted = 0.0
    for ref, hyp in pairs:
        clipped = _clipped_matches(ref, hyp)
        for n in range(1, MAX_N + 1):
            matched[n] += clipped[n]
            total[n] += _grams(len(hyp), n)
        weighted += len(ref) * _gleu_of(sum(clipped), len(ref), len(hyp))
        ref_len += len(ref)
        hyp_len += len(hyp)
    if hyp_len == 0:
        return 0.0, weighted, ref_len
    log_sum = 0.0
    for n in range(1, MAX_N + 1):
        num, den = matched[n], total[n]
        if n >= 2 and (den == 0 or num == 0):
            num += 1
            den += 1
        if num == 0 or den == 0:
            return 0.0, weighted, ref_len
        log_sum += math.log(num / den)
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_sum / MAX_N), weighted, ref_len


def bleu(pairs: Iterable[Pair]) -> float:
    """Corpus BLEU on 0..100 with clipped n-gram counts."""
    return _ngram_scores(pairs)[0]


def gleu(pairs: Iterable[Pair]) -> float:
    """Reference-token-weighted mean of sentence GLEU, on 0..100."""
    _, weighted, ref_words = _ngram_scores(pairs)
    if ref_words == 0:
        raise DegenerateInputError("GLEU over zero reference words")
    return 100.0 * weighted / ref_words


@dataclass(frozen=True)
class MetricsReport:
    """Corpus metric values plus the edit-operation counts behind WER."""

    wer: float
    bleu: float
    gleu: float
    substitutions: int
    insertions: int
    deletions: int
    ref_words: int

    @classmethod
    def compute(cls, pairs: Iterable[Pair]) -> "MetricsReport":
        id_pairs = _word_ids(pairs)
        s = i = d = n = 0
        for (ref, _), kinds in zip(id_pairs, _edit_kinds(id_pairs)):
            s += kinds.count(SUBSTITUTE)
            i += kinds.count(INSERT)
            d += kinds.count(DELETE)
            n += len(ref)
        if n == 0:
            raise DegenerateInputError("metrics over zero reference words")
        bleu_value, gleu_weighted, _ = _ngram_scores(id_pairs)
        return cls(
            wer=100.0 * (s + i + d) / n,
            bleu=bleu_value,
            gleu=100.0 * gleu_weighted / n,
            substitutions=s,
            insertions=i,
            deletions=d,
            ref_words=n,
        )

    def to_dict(self) -> dict:
        return asdict(self)
