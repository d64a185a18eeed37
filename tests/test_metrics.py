"""Metric oracles: exhaustive edit-distance checks and frozen BLEU/GLEU fixtures."""

import itertools
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossaec import metrics
from crossaec.errors import DegenerateInputError
from crossaec.metrics import (
    DELETE,
    INSERT,
    MATCH,
    MAX_N,
    MetricsReport,
    SUBSTITUTE,
    bleu,
    edit_ops,
    gleu,
)

# The one brute-force oracle, shared with the benchmark's output checks.
import reference


# Frozen values computed with the reference; asserted against both the
# implementation and a fresh reference run.
FIXTURE = [
    ([("the cat sat", "the cat sat")], 100.0, 100.0),
    ([("the cat sat", "the cat")], 60.653065971263345, 50.0),
    ([("the cat sat", "")], 0.0, 0.0),
    ([("a b c", "a b d")], 63.89431042462724, 50.0),
    ([("a", "a")], 100.0, 100.0),
    ([("a", "b")], 0.0, 0.0),
    ([("a b c d e", "a b c d e f g")], 61.478815295126445, 63.63636363636364),
    ([("a a a a", "a a")], 36.787944117144235, 30.0),
    ([("a b a b", "b a b a")], 75.98356856515926, 80.0),
    ([("the quick brown fox jumps", "the quick brown fox jumps")], 100.0, 100.0),
    ([("the quick brown fox", "quick brown the fox")], 48.549177170732335, 50.0),
    ([("x y z w", "x y z")], 71.65313105737893, 60.0),
    ([("hello world", "hello hello world world")], 40.8248290463863, 30.0),
    ([("one two three four five six", "one two four five six")], 43.98917247584221, 50.0),
    ([("p q r s", "p q r s t u v w x")], 29.847458960098226, 33.33333333333333),
    ([("m n", "n m")], 84.08964152537145, 66.66666666666666),
    ([("a b c d", "e f g h")], 0.0, 0.0),
    ([("the cat sat", "the cat sat"), ("a b c", "a b d")], 74.76743906106104, 75.0),
    ([("one two three", "one two three"), ("x y", "x")], 77.8800783071405, 73.33333333333333),
    (
        [("a b c d e f", "a b c d e f"), ("g h i", "g h i"), ("j k", "j j k")],
        90.77566051104999,
        90.9090909090909,
    ),
    ([("u v w", "u w"), ("u v w x", "u v w x")], 78.77400063243323, 71.42857142857143),
    (
        [
            (
                "long sentence with many different words here",
                "long sentence with many different words here indeed",
            )
        ],
        84.08964152537146,
        84.61538461538463,
    ),
    ([("repeat repeat repeat other", "repeat repeat other other")], 59.46035575013605, 60.0),
]


def _pairs(case):
    return [(r.split(), h.split()) for r, h in case]


def _counts(ops) -> tuple:
    """(substitutions, insertions, deletions) of an edit script."""
    kinds = Counter(op.kind for op in ops)
    return kinds[SUBSTITUTE], kinds[INSERT], kinds[DELETE]


def test_edit_ops_identical_is_all_matches():
    ops = edit_ops(["a", "b"], ["a", "b"])
    assert [op.kind for op in ops] == [MATCH, MATCH]
    assert _counts(ops) == reference.edit_counts(["a", "b"], ["a", "b"]) == (0, 0, 0)


def test_edit_ops_empty_hyp_is_deletions():
    ops = edit_ops(["a", "b"], [])
    assert [op.kind for op in ops] == [DELETE, DELETE]
    assert _counts(ops) == reference.edit_counts(["a", "b"], []) == (0, 0, 2)


def test_edit_ops_single_substitution():
    ops = edit_ops("a b c".split(), "a x c".split())
    assert _counts(ops) == reference.edit_counts("a b c".split(), "a x c".split())
    assert _counts(ops) == (1, 0, 0)


def test_edit_ops_replay_transforms_ref_into_hyp():
    rng = np.random.default_rng(0)
    vocab = ["a", "b", "c", "d"]
    for _ in range(200):
        ref = [vocab[i] for i in rng.integers(0, 4, rng.integers(0, 7))]
        hyp = [vocab[i] for i in rng.integers(0, 4, rng.integers(0, 7))]
        ops = edit_ops(ref, hyp)
        out = []
        for op in ops:
            if op.kind in (MATCH, SUBSTITUTE, INSERT):
                out.append(hyp[op.hyp_index])
        assert out == hyp
        kept_ref = [op.ref_index for op in ops if op.kind in (MATCH, SUBSTITUTE, DELETE)]
        assert kept_ref == list(range(len(ref)))


def test_edit_ops_exhaustive_small_pairs_match_oracle():
    vocab = ("a", "b", "c", "d")
    seqs = [()]
    for length in (1, 2, 3):
        seqs += list(itertools.product(vocab, repeat=length))
    for ref in seqs:
        for hyp in seqs:
            assert _counts(edit_ops(ref, hyp)) == reference.edit_counts(ref, hyp)


def test_edit_ops_random_len6_pairs_match_oracle():
    rng = np.random.default_rng(42)
    vocab = ("a", "b", "c", "d")
    for _ in range(2500):
        ref = tuple(vocab[i] for i in rng.integers(0, 4, rng.integers(0, 7)))
        hyp = tuple(vocab[i] for i in rng.integers(0, 4, rng.integers(0, 7)))
        assert _counts(edit_ops(ref, hyp)) == reference.edit_counts(ref, hyp)


def test_wer_identical_corpus_is_zero():
    assert MetricsReport.compute([(["a", "b"], ["a", "b"])]).wer == 0.0


def test_wer_single_substitution_is_third():
    value = MetricsReport.compute([("a b c".split(), "a x c".split())]).wer
    assert abs(value - 33.33333333333333) < 1e-9
    assert round(value, 2) == 33.33


def test_wer_empty_hypotheses_is_hundred():
    assert MetricsReport.compute([(["a", "b"], []), (["c"], [])]).wer == 100.0


def test_zero_reference_words_rejected():
    for corpus in ([], [([], ["a"])]):
        with pytest.raises(DegenerateInputError, match="metrics over zero reference words"):
            MetricsReport.compute(corpus)
    with pytest.raises(DegenerateInputError, match="GLEU over zero reference words"):
        gleu([([], ["a"])])


def test_bleu_identical_corpus_is_hundred():
    assert abs(bleu([(["a", "b", "c", "d", "e"], ["a", "b", "c", "d", "e"])]) - 100.0) < 1e-9


def test_bleu_empty_hypotheses_is_zero():
    assert bleu([(["a", "b"], [])]) == 0.0


def test_gleu_identical_corpus_is_hundred():
    assert abs(gleu([(["a", "b", "c"], ["a", "b", "c"])]) - 100.0) < 1e-9


def test_gleu_empty_hypothesis_pair_scores_zero():
    assert gleu([(["a", "b"], [])]) == 0.0


@pytest.mark.parametrize("case,expected_bleu,expected_gleu", FIXTURE)
def test_bleu_gleu_fixture(case, expected_bleu, expected_gleu):
    pairs = _pairs(case)
    assert abs(bleu(pairs) - expected_bleu) < 1e-9
    assert abs(gleu(pairs) - expected_gleu) < 1e-9
    # The reference itself must reproduce the frozen values.
    assert abs(reference.bleu(pairs) - expected_bleu) < 1e-9
    assert abs(reference.gleu(pairs) - expected_gleu) < 1e-9


def test_monotone_degradation_appending_nonmatching_word():
    rng = np.random.default_rng(3)
    vocab = ["a", "b", "c", "d"]
    for _ in range(100):
        ref = [vocab[i] for i in rng.integers(0, 4, rng.integers(1, 7))]
        hyp = [vocab[i] for i in rng.integers(0, 4, rng.integers(0, 7))]
        worse_hyp = hyp + ["zzz"]
        pairs = [(ref, hyp)]
        worse = [(ref, worse_hyp)]
        assert MetricsReport.compute(worse).wer >= MetricsReport.compute(pairs).wer
        assert gleu(worse) <= gleu(pairs) + 1e-12


def test_metrics_permutation_invariance():
    pairs = [
        ("a b c".split(), "a b".split()),
        ("d e".split(), "d e f".split()),
        ("g".split(), "h".split()),
    ]
    shuffled = [pairs[2], pairs[0], pairs[1]]
    assert MetricsReport.compute(pairs).wer == MetricsReport.compute(shuffled).wer
    assert bleu(pairs) == bleu(shuffled)
    assert gleu(pairs) == gleu(shuffled)


def test_metrics_report_consistency():
    pairs = [("a b c".split(), "a x c".split()), ("d e".split(), "d e".split())]
    report = MetricsReport.compute(pairs)
    assert report.substitutions == 1
    assert report.insertions == 0
    assert report.deletions == 0
    assert report.ref_words == 5
    assert abs(report.wer - 20.0) < 1e-12


def test_report_all_identical_pairs():
    report = MetricsReport.compute([(["a", "b"], ["a", "b"])])
    assert report.wer == 0.0
    assert report.bleu == 100.0
    assert report.gleu == 100.0


WORDS = st.sampled_from(("a", "b", "c", "d", "e"))


@st.composite
def ragged_corpora(draw):
    """Random pairs plus an empty hypothesis, a one-word reference, a pair
    far longer than the rest and a pair of one word repeated, shuffled."""
    pairs = draw(
        st.lists(
            st.tuples(
                st.lists(WORDS, min_size=1, max_size=8), st.lists(WORDS, max_size=8)
            ),
            max_size=10,
        )
    )
    pairs.append((draw(st.lists(WORDS, min_size=1, max_size=8)), []))
    pairs.append(([draw(WORDS)], draw(st.lists(WORDS, max_size=4))))
    long_ref = draw(st.lists(WORDS, min_size=30, max_size=40))
    pairs.append((long_ref, draw(st.lists(WORDS, min_size=25, max_size=45))))
    word = draw(WORDS)
    repeated_hyp = [word] * draw(st.integers(0, 12)) + draw(st.lists(WORDS, max_size=3))
    pairs.append(([word] * draw(st.integers(1, 12)), repeated_hyp))
    return draw(st.permutations(pairs))


@settings(max_examples=60, deadline=None)
@given(ragged_corpora())
def test_report_matches_oracles_over_ragged_corpora(pairs):
    # Three pairs per table: every corpus spans several chunks.
    with mock.patch.object(metrics, "CHUNK_PAIRS", 3):
        report = MetricsReport.compute(pairs)
    per_pair = [_counts(edit_ops(ref, hyp)) for ref, hyp in pairs]
    for (ref, hyp), counts in zip(pairs, per_pair):
        assert counts == reference.edit_counts(ref, hyp)
    totals = tuple(sum(c[k] for c in per_pair) for k in range(3))
    assert (report.substitutions, report.insertions, report.deletions) == totals
    assert report.ref_words == sum(len(ref) for ref, _ in pairs)
    assert report.wer == 100.0 * sum(totals) / report.ref_words
    assert abs(report.bleu - reference.bleu(pairs)) < 1e-9
    assert abs(report.gleu - reference.gleu(pairs)) < 1e-9
    assert (report.bleu, report.gleu) == (bleu(pairs), gleu(pairs))


SHORT = st.lists(st.sampled_from(("a", "b", "c")), max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(SHORT, SHORT), max_size=8))
@example([(["a"], ["b", "a", "b"])])  # a ref gram run on into its hyp would match
@example([(["a", "b"], ["a"]), (["b"], [])])  # so would a hyp gram run on into the next ref
def test_clipped_table_matches_the_oracle_per_pair_and_order(pairs):
    # Three words and sentences mostly shorter than MAX_N: a gram counted
    # across a sentence end, the ref/hyp seam or a pair boundary would match.
    table = metrics._clipped_table(metrics._word_ids(pairs))
    assert table.dtype == np.int64 and table.shape == (len(pairs), MAX_N + 1)
    for row, (ref, hyp) in zip(table.tolist(), pairs):
        assert row == [0] + [
            reference.clipped_matches(reference.grams(ref, n), reference.grams(hyp, n))
            for n in range(1, MAX_N + 1)
        ]


def test_bleu_gleu_past_the_vocabulary_where_polynomial_gram_keys_wrap():
    """70,000 distinct words, past the 55,108 at which a base-W 4-gram key
    ``((a * W + b) * W + c) * W + d`` overflows int64. The last pair's grams
    collide under that key: its ref is word 0 four times, and its hyp spells
    2**64 in base W, whose key wraps to 0."""
    size = 70_000
    words = [f"w{k}" for k in range(size)]
    rng = np.random.default_rng(0)
    pairs = []
    for start in range(0, size, 5):
        ref = words[start : start + 5]
        hyp = list(ref)
        # Only words already used: word k keeps id k, so W is exactly size.
        for k in rng.choice(5, 2, replace=False):
            hyp[k] = words[rng.integers(start + 5)]
        pairs.append((ref, hyp))
    digits, rest = [], 2**64
    for _ in range(MAX_N):
        rest, digit = divmod(rest, size)
        digits.insert(0, words[digit])
    pairs.append((words[:1] * MAX_N, digits))
    assert abs(bleu(pairs) - reference.bleu(pairs)) < 1e-9
    assert abs(gleu(pairs) - reference.gleu(pairs)) < 1e-9
