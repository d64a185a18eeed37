"""Reference metrics: WER from a Levenshtein alignment, BLEU, and GLEU.

WER, BLEU, and GLEU are reported on a 0..100 scale. The same alignment
drives WER and the per-type error counts.

``MetricsReport.compute`` scores a corpus in one pass, and is the only
source of WER. Its words are mapped to integers once. The Levenshtein
tables of all pairs are built together in numpy, one reference row per
step, in chunks of pairs sorted by length; a per-pair backtrace in
Python then reads off the S/I/D counts. The 1..4-grams of the whole
corpus are counted in one numpy pass into a (pairs, orders) table of
clipped matches, which feeds both BLEU's corpus totals and the sentence
GLEU overlaps. ``edit_ops``, ``bleu`` and ``gleu`` map their words to
integers the same way and call the same table, backtrace and n-gram code.
"""

from __future__ import annotations

import itertools
import math
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


def _clipped_table(id_pairs: Sequence[IdPair]) -> np.ndarray:
    """Clipped n-gram matches, shape (pairs, MAX_N + 1): cell [k, n] counts pair
    k's hyp n-grams found in its ref, at most as often as the ref holds each.

    All refs and hyps lie end to end in one id array. An n-gram's number
    extends its (n-1)-gram's by the next word and is renumbered densely, so it
    stays below T**2 for T words in all; grams running past their sentence's end
    are dropped. One sort of the keys puts each gram's ref count beside its
    hyp count.
    """
    sides = [words for pair in id_pairs for words in pair]
    lengths = np.array([len(words) for words in sides], dtype=np.int64)
    size = int(lengths.sum())
    words = np.fromiter(itertools.chain.from_iterable(sides), np.int64, size)
    room = np.repeat(np.cumsum(lengths), lengths) - np.arange(size)
    segment = np.arange(len(sides))  # 2 * pair + side
    # Each key is ((pair * (MAX_N + 1) + n) * size + gram) * 2 + side.
    base = np.repeat(segment // 2 * (MAX_N + 1) * 2 * size + segment % 2, lengths)
    grams, keys = words, []
    for n in range(1, MAX_N + 1):
        if n > 1:
            grams = np.unique(grams[:-1] * size + words[n - 1 :], return_inverse=True)[1]
        fits = room[: len(grams)] >= n
        keys.append(base[: len(grams)][fits] + (n * size + grams[fits]) * 2)
    found, counts = np.unique(np.concatenate(keys), return_counts=True)
    # Sorted keys put a gram's ref run (side 0) just before its hyp run.
    both = found[1:] // 2 == found[:-1] // 2
    matches = np.minimum(counts[1:], counts[:-1])[both]
    cells = found[:-1][both] // (2 * size)
    table = np.bincount(cells, matches, len(id_pairs) * (MAX_N + 1))
    return table.astype(np.int64).reshape(-1, MAX_N + 1)


def _ngram_scores(id_pairs: Sequence[IdPair]) -> Tuple[float, float, int]:
    """BLEU, the reference-weighted sum of sentence GLEU, and the reference
    word count, all read from the corpus's ``_clipped_table``.

    Sentence GLEU is min(n-gram precision, n-gram recall) over the pooled
    1..MAX_N grams, and 0 when either side has none; the weighted sum adds
    the pairs in order. BLEU smoothing: for n >= 2 only, add one to
    numerator and denominator when either is zero at the corpus level
    (tiny corpora otherwise hit log 0).
    """
    clipped = _clipped_table(id_pairs)
    lengths = np.array([(len(r), len(h)) for r, h in id_pairs], np.int64).reshape(-1, 2)
    # grams[k, side, n - 1]: the n-grams of pair k's ref (side 0) or hyp (side 1).
    grams = np.maximum(lengths[:, :, None] - np.arange(MAX_N), 0)
    overlap = clipped.sum(axis=1)
    # A side with no grams has no matches, so its pair scores 0 / 1.
    pooled = np.maximum(grams.sum(axis=2), 1)
    sentence = np.minimum(overlap / pooled[:, 1], overlap / pooled[:, 0])
    weighted = 0.0
    for value in (lengths[:, 0] * sentence).tolist():
        weighted += value
    ref_len, hyp_len = lengths.sum(axis=0).tolist()
    if hyp_len == 0:
        return 0.0, weighted, ref_len
    log_sum = 0.0
    matched = clipped.sum(axis=0).tolist()
    total = grams[:, 1].sum(axis=0).tolist()
    for n in range(1, MAX_N + 1):
        num, den = matched[n], total[n - 1]
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
    return _ngram_scores(_word_ids(pairs))[0]


def gleu(pairs: Iterable[Pair]) -> float:
    """Reference-token-weighted mean of sentence GLEU, on 0..100."""
    _, weighted, ref_words = _ngram_scores(_word_ids(pairs))
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
