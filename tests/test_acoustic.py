"""Acoustic feature contracts: pooling, resampling, padding, alignment."""

import math

import numpy as np
import pytest

from crossaec.errors import (
    AlignmentError,
    CoverageError,
    DegenerateInputError,
    ShapeError,
)
from crossaec.acoustic import (
    PrototypeTable,
    build_prototypes,
    fft_resample,
    load_alignment,
    mean_pool_awe,
    pad_dsu,
    project_features,
    synth_frames,
    validate_boundaries,
)
from crossaec.nn import ParameterStore, Tensor, gradient_check, tensor_sum
from crossaec.nn.layers import Linear
from crossaec.text import CorpusRecord
from crossaec.util import stable_hash


def _table(words=("red", "blue", "green"), sigma=0.1, seed=0):
    return build_prototypes(words, [], 6, sigma, seed)


def test_synth_frames_zero_noise_equals_prototypes():
    table = _table(sigma=0.0)
    frames, bounds = synth_frames(["red", "blue"], table, 3, rng_seed=1)
    np.testing.assert_array_equal(frames[0:3], np.tile(table.prototypes["red"], (3, 1)))
    np.testing.assert_array_equal(frames[3:6], np.tile(table.prototypes["blue"], (3, 1)))
    assert bounds == [(0, 3), (3, 6)]


def test_synth_frames_boundaries_exact():
    table = _table()
    frames, bounds = synth_frames(["red", "blue", "green"], table, 4, rng_seed=2)
    assert frames.shape == (12, 6)
    assert bounds == [(0, 4), (4, 8), (8, 12)]


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
    assert frames.shape == (0, 6) and bounds == []


def test_synth_frames_missing_prototype():
    with pytest.raises(CoverageError):
        synth_frames(["red", "zzz"], _table(), 2, rng_seed=0)


def test_same_word_same_awe_when_noiseless():
    table = _table(sigma=0.0)
    frames, bounds = synth_frames(["red", "blue", "red"], table, 4, rng_seed=3)
    awe = mean_pool_awe(frames, bounds)
    np.testing.assert_array_equal(awe[0], awe[2])
    assert not np.array_equal(awe[0], awe[1])


def test_confusable_pair_separation_enforced():
    words = ["red", "blue"]
    table = build_prototypes(words, [("red", "blue")], 6, 0.1, seed=4)
    gap = np.linalg.norm(table.prototypes["red"] - table.prototypes["blue"])
    assert gap >= 4 * table.noise_sigma
    with pytest.raises(CoverageError):
        PrototypeTable(
            prototypes={"a": np.zeros(3), "b": np.zeros(3)},
            noise_sigma=0.1,
            confusable_pairs=(("a", "b"),),
        )


def test_prototype_table_rejects_empty_table():
    with pytest.raises(CoverageError):
        PrototypeTable(prototypes={}, noise_sigma=0.1)
    with pytest.raises(CoverageError):
        build_prototypes([], [], 6, 0.1, seed=0)


def test_prototype_table_rejects_unequal_dimensions():
    with pytest.raises(ShapeError):
        PrototypeTable(prototypes={"a": np.zeros(3), "b": np.zeros(4)}, noise_sigma=0.1)
    with pytest.raises(ShapeError):
        PrototypeTable(prototypes={"a": np.zeros((2, 3))}, noise_sigma=0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_prototype_table_rejects_non_finite_prototype(bad):
    prototypes = {"a": np.ones(3), "b": np.array([1.0, bad, 0.0])}
    with pytest.raises(DegenerateInputError, match="'b'"):
        PrototypeTable(prototypes=prototypes, noise_sigma=0.1)
    with pytest.raises(DegenerateInputError, match="'a'"):
        PrototypeTable(prototypes={"a": [bad, 1.0]}, noise_sigma=0.1)


def test_prototype_table_rejects_confusable_pair_without_prototype():
    with pytest.raises(CoverageError):
        PrototypeTable(
            prototypes={"a": np.zeros(3)},
            noise_sigma=0.1,
            confusable_pairs=(("a", "b"),),
        )


def test_clustered_prototypes_collapse_words():
    table = build_prototypes(["a", "b", "c"], [], 6, 0.1, seed=5, clusters=1)
    np.testing.assert_array_equal(table.prototypes["a"], table.prototypes["b"])
    with pytest.raises(CoverageError):
        build_prototypes(["a", "b"], [("a", "b")], 6, 0.1, seed=5, clusters=1)


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


def test_project_features_gradcheck():
    store = ParameterStore()
    proj = Linear(store, "proj", 5, 8, np.random.default_rng(6))
    raw = np.random.default_rng(7).normal(size=(4, 5))

    def loss():
        return tensor_sum(project_features(Tensor(raw), proj.weight, proj.bias))

    assert gradient_check(loss, store) <= 1e-4


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


def test_load_alignment_accepts_synth_output(tmp_path):
    table = _table()
    frames, bounds = synth_frames(["red", "blue"], table, 4, rng_seed=0)
    record = CorpusRecord(
        id="r", ref_words=["red", "blue"], hyp_words=["red", "blue"], boundaries=bounds
    )
    assert load_alignment(record, frames.shape[0]) == bounds


def test_load_alignment_rejects_overlap():
    record = CorpusRecord(
        id="r",
        ref_words=["a", "b"],
        hyp_words=["a", "b"],
        boundaries=[(0, 4), (3, 8)],
    )
    with pytest.raises(AlignmentError):
        load_alignment(record, 8)


def test_validate_boundaries_out_of_range():
    with pytest.raises(AlignmentError):
        validate_boundaries([(0, 9)], 8)
