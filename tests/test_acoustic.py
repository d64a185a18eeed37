"""Acoustic feature contracts: pooling, resampling, padding, alignment."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossaec.errors import AlignmentError, CoverageError, ShapeError
from crossaec.acoustic import (
    PrototypeTable,
    build_prototypes,
    fft_resample,
    mean_pool_awe,
    pad_dsu,
    project_features,
    synth_frames,
    validate_boundaries,
)
from crossaec.nn.tensor import Tensor
from crossaec.util import stable_hash


def _table(words=("red", "blue", "green"), sigma=0.1, seed=0):
    return build_prototypes(words, 6, sigma, seed)


def test_synth_frames_zero_noise_equals_prototypes():
    table = _table(sigma=0.0)
    frames, bounds = synth_frames(["red", "blue"], table, 3, rng_seed=1)
    np.testing.assert_array_equal(frames[0:3], np.tile(table.prototypes["red"], (3, 1)))
    np.testing.assert_array_equal(frames[3:6], np.tile(table.prototypes["blue"], (3, 1)))
    assert bounds.tolist() == [[0, 3], [3, 6]]


def test_synth_frames_boundaries_exact():
    table = _table()
    frames, bounds = synth_frames(["red", "blue", "green"], table, 4, rng_seed=2)
    assert frames.shape == (12, 6)
    assert bounds.tolist() == [[0, 4], [4, 8], [8, 12]]


def test_synth_frames_deterministic():
    table = _table()
    f1, _ = synth_frames(["red", "green"], table, 4, rng_seed=9)
    f2, _ = synth_frames(["red", "green"], table, 4, rng_seed=9)
    np.testing.assert_array_equal(f1, f2)


def test_synth_frames_values_are_pinned():
    # Digest of the frames drawn one word at a time, before the single draw.
    table = _table()
    words = ["red", "blue", "green", "red", "blue"]
    frames, _ = synth_frames(words, table, 4, rng_seed=7)
    assert stable_hash(frames.tolist()) == "1b87831301bec251"


def test_synth_frames_empty_reference():
    frames, bounds = synth_frames([], _table(), 4, rng_seed=7)
    assert frames.shape == (0, 6) and bounds.tolist() == []


def test_synth_frames_missing_prototype():
    with pytest.raises(CoverageError):
        synth_frames(["red", "zzz"], _table(), 2, rng_seed=0)


def test_same_word_same_awe_when_noiseless():
    table = _table(sigma=0.0)
    frames, bounds = synth_frames(["red", "blue", "red"], table, 4, rng_seed=3)
    awe = mean_pool_awe(frames, bounds)
    np.testing.assert_array_equal(awe[0], awe[2])
    assert not np.array_equal(awe[0], awe[1])


def test_prototype_table_rejects_empty_table():
    with pytest.raises(CoverageError):
        PrototypeTable(prototypes={}, noise_sigma=0.1)
    with pytest.raises(CoverageError):
        build_prototypes([], 6, 0.1, seed=0)


def test_prototype_table_rejects_unequal_dimensions():
    with pytest.raises(ShapeError):
        PrototypeTable(prototypes={"a": np.zeros(3), "b": np.zeros(4)}, noise_sigma=0.1)
    with pytest.raises(ShapeError):
        PrototypeTable(prototypes={"a": np.zeros((2, 3))}, noise_sigma=0.1)


def test_prototype_table_rejects_zero_width_prototypes():
    with pytest.raises(ShapeError):
        PrototypeTable(prototypes={"a": np.zeros(0)}, noise_sigma=0.1)


@pytest.mark.parametrize(
    "prototypes, kind",
    [([1.0, 2.0], "list"), ([("a", [1.0])], "list"), ("ab", "str"), (None, "NoneType")],
    ids=["list", "pairs", "str", "none"],
)
def test_prototype_table_rejects_non_mapping(prototypes, kind):
    with pytest.raises(ShapeError) as caught:
        PrototypeTable(prototypes, 0.1)
    assert str(caught.value) == f"prototypes must be a mapping, got {kind}"


def test_list_prototypes_give_the_frames_of_array_prototypes():
    values = {"a": [1.0, 2.0], "b": [-1.0, 0.5]}
    from_lists = PrototypeTable(values, 0.1)
    from_arrays = PrototypeTable({w: np.array(v) for w, v in values.items()}, 0.1)
    assert from_lists.dim == 2 and from_lists.prototypes["a"].dtype == np.float64
    got, _ = synth_frames(["a", "b", "a"], from_lists, 2, rng_seed=9)
    want, _ = synth_frames(["a", "b", "a"], from_arrays, 2, rng_seed=9)
    np.testing.assert_array_equal(got, want)


def test_clustered_prototypes_collapse_words():
    table = build_prototypes(["a", "b", "c"], 6, 0.1, seed=5, clusters=1)
    np.testing.assert_array_equal(table.prototypes["a"], table.prototypes["b"])


def test_mean_pool_single_word_is_column_mean():
    frames = np.random.default_rng(0).normal(size=(7, 4))
    awe = mean_pool_awe(frames, [(0, 7)])
    np.testing.assert_allclose(awe[0], frames.mean(axis=0), rtol=0, atol=0)


def test_mean_pool_two_frame_interval():
    frames = np.array([[1.0], [3.0]])
    np.testing.assert_array_equal(mean_pool_awe(frames, [(0, 2)]), [[2.0]])


def test_mean_pool_matches_brute_force_exactly():
    rng = np.random.default_rng(11)
    frames = rng.normal(size=(10, 4))
    bounds = [(0, 3), (3, 7), (7, 10)]
    awe = mean_pool_awe(frames, bounds)
    for row, (s, e) in zip(awe, bounds):
        brute = np.zeros(4)
        for i in range(s, e):
            brute += frames[i]
        brute /= e - s
        np.testing.assert_array_equal(row, brute)


def test_mean_pool_invalid_boundaries():
    frames = np.zeros((4, 2))
    with pytest.raises(AlignmentError):
        mean_pool_awe(frames, [(0, 5)])
    with pytest.raises(AlignmentError):
        mean_pool_awe(frames, [(2, 2)])
    with pytest.raises(AlignmentError):
        mean_pool_awe(frames, [(0, 3), (2, 4)])


def test_fft_resample_preserves_constant_columns():
    frames = np.full((12, 3), 2.5)
    for target in (5, 12, 20):
        out = fft_resample(frames, target)
        np.testing.assert_allclose(out, 2.5, atol=1e-9)


def test_fft_resample_identity_when_lengths_match():
    frames = np.random.default_rng(1).normal(size=(16, 5))
    np.testing.assert_allclose(fft_resample(frames, 16), frames, atol=1e-9)


def test_fft_resample_single_cosine_closed_form():
    # One cycle over 16 frames resampled to 8 is one cycle over 8.
    n = np.arange(16)
    frames = np.cos(2 * math.pi * n / 16)[:, None]
    out = fft_resample(frames, 8)
    expected = np.cos(2 * math.pi * np.arange(8) / 8)[:, None]
    np.testing.assert_allclose(out, expected, atol=1e-6)


def test_fft_resample_preserves_column_means():
    frames = np.random.default_rng(2).normal(size=(10, 4))
    for target in (4, 7, 10, 23):
        out = fft_resample(frames, target)
        np.testing.assert_allclose(
            out.mean(axis=0), frames.mean(axis=0), atol=1e-9
        )


def test_fft_resample_is_linear():
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=(2, 9, 4))
    a, b = 1.7, -0.6
    for target in (5, 14):  # down- and up-sampling
        np.testing.assert_allclose(
            fft_resample(a * x + b * y, target),
            a * fft_resample(x, target) + b * fft_resample(y, target),
            atol=1e-12,
        )


def test_project_features_zero_input_zero_bias_gives_zero():
    raw = Tensor(np.zeros((3, 4)))
    weight = Tensor(np.random.default_rng(4).normal(size=(4, 6)))
    bias = Tensor(np.zeros(6))
    out = project_features(raw, weight, bias)
    np.testing.assert_array_equal(out.data, np.zeros((3, 6)))


def test_project_features_identity_init_is_nonlinearity_of_input():
    x = np.random.default_rng(5).normal(size=(3, 4))
    out = project_features(Tensor(x), Tensor(np.eye(4)), Tensor(np.zeros(4)))
    np.testing.assert_allclose(out.data, np.tanh(x), atol=0)


def test_pad_dsu_full_length_keeps_everything():
    awe = np.random.default_rng(8).normal(size=(4, 3))
    seq = pad_dsu(awe, 4)
    np.testing.assert_array_equal(seq.vectors, awe)
    assert seq.pad_mask.all()


def test_pad_dsu_empty_input():
    seq = pad_dsu(np.zeros((0, 3)), 5)
    np.testing.assert_array_equal(seq.vectors, np.zeros((5, 3)))
    assert not seq.pad_mask.any()


def test_pad_dsu_zero_rows_and_mask_contract():
    awe = np.random.default_rng(9).normal(size=(2, 3))
    seq = pad_dsu(awe, 5)
    np.testing.assert_array_equal(seq.vectors[:2], awe)
    assert (seq.vectors[2:] == 0.0).all()
    np.testing.assert_array_equal(seq.pad_mask, [True, True, False, False, False])


def test_pad_dsu_overflow_rejected():
    with pytest.raises(ShapeError):
        pad_dsu(np.zeros((6, 2)), 4)


def test_validate_boundaries_accepts_synth_output():
    frames, bounds = synth_frames(["red", "blue"], _table(), 4, rng_seed=0)
    validate_boundaries(bounds, frames.shape[0])
    assert mean_pool_awe(frames, bounds).shape == (2, frames.shape[1])


def test_validate_boundaries_rejects_overlap():
    with pytest.raises(AlignmentError, match="overlaps"):
        validate_boundaries([(0, 4), (3, 8)], 8)


def test_validate_boundaries_out_of_range():
    with pytest.raises(AlignmentError):
        validate_boundaries([(0, 9)], 8)


@pytest.mark.parametrize(
    "boundaries", [5, None, np.array([0, 2])], ids=["int", "none", "1d-array"]
)
def test_mean_pool_rejects_boundaries_that_are_not_pairs(boundaries):
    with pytest.raises(AlignmentError):
        mean_pool_awe(np.zeros((4, 2)), boundaries)


# Each function taking a (rows, dim) frame or word-vector matrix, called on
# ``matrix``.
MATRIX_SITES = {
    "mean_pool_awe": lambda matrix: mean_pool_awe(matrix, [(0, 2)]),
    "pad_dsu": lambda matrix: pad_dsu(matrix, 4),
    "fft_resample": lambda matrix: fft_resample(matrix, 4),
}


@pytest.mark.parametrize("shape", [(4,), (4, 2, 1)], ids=["1d", "3d"])
@pytest.mark.parametrize("site", sorted(MATRIX_SITES))
def test_matrix_inputs_must_be_2d(site, shape):
    with pytest.raises(ShapeError, match="2D"):
        MATRIX_SITES[site](np.zeros(shape))


def test_fft_resample_rejects_zero_frames():
    with pytest.raises(ShapeError, match="at least one frame"):
        fft_resample(np.zeros((0, 2)), 4)


def _spans_are_valid(spans, num_frames):
    prev_end = 0
    for start, end in spans:
        if not 0 <= start < end <= num_frames or start < prev_end:
            return False
        prev_end = end
    return True


_NOT_A_PAIR = st.one_of(
    st.integers(0, 4), st.tuples(st.integers(0, 4)), st.tuples(*[st.integers(0, 4)] * 3)
)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 12),
    st.lists(st.tuples(st.integers(-2, 14), st.integers(-2, 14)), max_size=6),
    st.sampled_from(["list", "array", "not-a-pair"]),
    _NOT_A_PAIR,
)
# Random draws seldom give valid non-empty spans, so two are pinned.
@example(5, [(0, 2), (3, 5)], "list", 0)
@example(5, [(0, 2), (3, 5)], "array", 0)
def test_mean_pool_fails_exactly_on_bad_spans(num_frames, spans, form, not_a_pair):
    frames = np.random.default_rng(num_frames).normal(size=(num_frames, 3))
    if form == "array":
        spans = np.array(spans, dtype=np.int64).reshape(-1, 2)
    elif form == "not-a-pair":
        spans = [not_a_pair] + spans
    if form == "not-a-pair" or not _spans_are_valid(spans, num_frames):
        with pytest.raises(AlignmentError):
            mean_pool_awe(frames, spans)
        return
    awe = mean_pool_awe(frames, spans)
    assert awe.shape == (len(spans), 3)
    for row, (start, end) in zip(awe, spans):
        brute = sum(frames[i] for i in range(start, end)) / (end - start)
        np.testing.assert_array_equal(row, brute)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([1, 2, 16]),
    st.lists(st.tuples(st.integers(0, 3), st.integers(1, 12)), max_size=8),
    st.integers(0, 3),
    st.sampled_from(["list", "array"]),
    st.integers(0, 2**32 - 1),
)
# A 9-frame span at dim 1: ndarray.mean summed it pairwise and missed the
# frame-order mean in the last bit (seed 1 here); the row-by-row sum matches.
@example(1, [(0, 9)], 0, "list", 1)
def test_mean_pool_is_the_frame_order_mean(dim, pieces, trailing, form, seed):
    # Each piece is (gap before the span, span length).
    spans, end = [], 0
    for gap, length in pieces:
        spans.append((end + gap, end + gap + length))
        end += gap + length
    frames = np.random.default_rng(seed).normal(size=(end + trailing, dim))
    given_spans = np.array(spans, dtype=np.int64).reshape(-1, 2) if form == "array" else spans
    awe = mean_pool_awe(frames, given_spans)
    assert awe.shape == (len(spans), dim) and awe.dtype == np.float64
    for row, (start, stop) in zip(awe, spans):
        frame_order_sum = sum(frames[i] for i in range(start, stop))
        np.testing.assert_array_equal(row, frame_order_sum / (stop - start))


def test_mean_pool_values_are_pinned():
    # Digest of the vectors pooled one span at a time, before the one gather:
    # the synthesized spans, then spans of uneven length with a gap and unused
    # trailing frames.
    frames, bounds = synth_frames(["red", "blue", "green", "red", "blue"], _table(), 4, 7)
    uneven = [(0, 3), (4, 9), (9, 10), (12, 19)]
    pooled = [mean_pool_awe(frames, bounds).tolist(), mean_pool_awe(frames, uneven).tolist()]
    assert stable_hash(pooled) == "224fb9ea4a073d66"


def test_validate_boundaries_returns_the_spans_as_an_int64_array():
    spans = validate_boundaries([(np.uint8(0), np.int64(2)), (3, np.int32(5))], 6)
    assert spans.dtype == np.int64 and spans.tolist() == [[0, 2], [3, 5]]
    assert validate_boundaries([], 6).shape == (0, 2)
