"""Brute-force references for the metrics the evaluate workload checks.

Written from the documented definitions, not from ``crossaec.metrics``:
edit distance by memoized recursion, n-gram matches by counting list
occurrences. Slow, and only run outside the timed region.
"""

from __future__ import annotations

import math


def edit_counts(ref, hyp) -> tuple[int, int, int]:
    """(S, I, D) of the unit-cost alignment, ties broken match > substitute
    > delete > insert while tracing back from the end."""
    memo: dict = {}

    def dist(i: int, j: int) -> int:
        if i == 0 or j == 0:
            return i + j
        if (i, j) not in memo:
            memo[i, j] = min(
                dist(i - 1, j - 1) + (ref[i - 1] != hyp[j - 1]),
                dist(i - 1, j) + 1,
                dist(i, j - 1) + 1,
            )
        return memo[i, j]

    s = ins = dels = 0
    i, j = len(ref), len(hyp)
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            differ = ref[i - 1] != hyp[j - 1]
            if dist(i, j) == dist(i - 1, j - 1) + differ:
                s += differ
                i, j = i - 1, j - 1
                continue
        if i > 0 and dist(i, j) == dist(i - 1, j) + 1:
            dels += 1
            i -= 1
            continue
        ins += 1
        j -= 1
    return s, ins, dels


def grams(words, n: int) -> list[tuple]:
    return [tuple(words[k : k + n]) for k in range(len(words) - n + 1)]


def clipped_matches(ref_grams: list, hyp_grams: list) -> int:
    return sum(min(hyp_grams.count(g), ref_grams.count(g)) for g in set(hyp_grams))


def bleu(pairs, max_n: int = 4) -> float:
    """Corpus BLEU on 0..100; add-one for n >= 2 when a corpus count is 0."""
    matched = [0] * (max_n + 1)
    total = [0] * (max_n + 1)
    ref_len = sum(len(ref) for ref, _ in pairs)
    hyp_len = sum(len(hyp) for _, hyp in pairs)
    for ref, hyp in pairs:
        for n in range(1, max_n + 1):
            hyp_grams = grams(hyp, n)
            total[n] += len(hyp_grams)
            matched[n] += clipped_matches(grams(ref, n), hyp_grams)
    if hyp_len == 0:
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        num, den = matched[n], total[n]
        if n >= 2 and (num == 0 or den == 0):
            num, den = num + 1, den + 1
        if num == 0 or den == 0:
            return 0.0
        log_sum += math.log(num / den)
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_sum / max_n)


def gleu(pairs, max_n: int = 4) -> float:
    """Reference-length-weighted mean of min(precision, recall) over the
    pooled 1..max_n grams, on 0..100."""
    weighted = 0.0
    for ref, hyp in pairs:
        ref_grams = [g for n in range(1, max_n + 1) for g in grams(ref, n)]
        hyp_grams = [g for n in range(1, max_n + 1) for g in grams(hyp, n)]
        if ref_grams and hyp_grams:
            overlap = clipped_matches(ref_grams, hyp_grams)
            weighted += len(ref) * min(overlap / len(hyp_grams), overlap / len(ref_grams))
    return 100.0 * weighted / sum(len(ref) for ref, _ in pairs)


def report(pairs) -> dict:
    """The fields of ``MetricsReport.to_dict()``, computed by brute force."""
    s = ins = dels = 0
    for ref, hyp in pairs:
        ds, di, dd = edit_counts(ref, hyp)
        s, ins, dels = s + ds, ins + di, dels + dd
    n = sum(len(ref) for ref, _ in pairs)
    return {
        "wer": 100.0 * (s + ins + dels) / n,
        "bleu": bleu(pairs),
        "gleu": gleu(pairs),
        "substitutions": s,
        "insertions": ins,
        "deletions": dels,
        "ref_words": n,
    }


def same_report(got: dict, want: dict, tol: float = 1e-9) -> bool:
    """Counts equal; scores equal to ``tol`` relative (summation order differs)."""
    if got.keys() != want.keys():
        return False
    for key, value in want.items():
        if isinstance(value, int):
            if got[key] != value:
                return False
        elif not math.isclose(got[key], value, rel_tol=tol, abs_tol=tol):
            return False
    return True
