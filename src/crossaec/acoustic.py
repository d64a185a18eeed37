"""Synthetic frame features, word boundaries, pooled word vectors, resampling.

Frames stand in for self-supervised speech features: each spoken word
contributes a run of frames drawn from its prototype vector plus noise.
Frames are made in memory from a ``PrototypeTable`` and a seed and never
touch disk. Every float array that enters, a prototype or a frame matrix,
must be finite (``util.as_array``). Word-level acoustic vectors are means
over boundary intervals, and ``mean_pool_awe`` is where those intervals
are checked against the frames. It pools every span of an utterance with
one gather and adds each span's frames in frame order, so a span's vector
is the same whatever other spans share the call. The continuous baselines
are Fourier-resampled frame sequences.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from crossaec.errors import AlignmentError, CoverageError, ShapeError
from crossaec.nn.tensor import Tensor, linear, tanh
from crossaec.util import as_array, as_count, as_real

Boundary = Tuple[int, int]


@dataclass
class PrototypeTable:
    """Word -> prototype vector of one shared dimension, plus the frame
    noise level: finite vectors and a finite ``noise_sigma`` >= 0."""

    prototypes: Dict[str, np.ndarray]
    noise_sigma: float

    def __post_init__(self):
        self.noise_sigma = as_real(self.noise_sigma, "noise_sigma", ShapeError)
        if not isinstance(self.prototypes, Mapping):
            raise ShapeError(
                f"prototypes must be a mapping, got {type(self.prototypes).__name__}"
            )
        if not self.prototypes:
            raise CoverageError("prototype table has no words")
        self.prototypes = {
            w: as_array(v, float, f"prototype for {w!r}", ShapeError)
            for w, v in self.prototypes.items()
        }
        shapes = {v.shape for v in self.prototypes.values()}
        if len(shapes) != 1 or [len(s) for s in shapes] != [1] or (0,) in shapes:
            raise ShapeError(
                f"prototypes must be non-empty vectors of one dimension, got "
                f"shapes {sorted(shapes)}"
            )

    @property
    def dim(self) -> int:
        return next(iter(self.prototypes.values())).shape[0]


def build_prototypes(
    words: Sequence[str],
    feature_dim: int,
    noise_sigma: float,
    seed: int,
    clusters: Optional[int] = None,
) -> PrototypeTable:
    """Standard-normal prototypes of ``feature_dim`` values per word.

    ``clusters`` collapses words onto that many shared vectors (by default
    as many as there are words); ``clusters=1`` makes the acoustics carry no
    word identity at all (the uninformative-control construction).
    """
    dim = as_count(feature_dim, "feature_dim", ShapeError)
    rng = np.random.default_rng(as_count(seed, "seed", ShapeError, 0))
    count = len(words) if clusters is None else as_count(clusters, "clusters", ShapeError)
    centers = rng.normal(0.0, 1.0, (count, dim))
    vectors = {w: centers[i % count].copy() for i, w in enumerate(words)}
    return PrototypeTable(prototypes=vectors, noise_sigma=noise_sigma)


def synth_frames(
    ref_words: Sequence[str],
    table: PrototypeTable,
    frames_per_word: int,
    rng_seed: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Frames for the spoken reference: prototype + gaussian noise per frame.

    Returns the frame matrix and the exact per-reference-word boundaries as
    an (n, 2) int64 array, the form ``validate_boundaries`` returns.
    """
    per_word = as_count(frames_per_word, "frames_per_word", ShapeError)
    missing = [w for w in ref_words if w not in table.prototypes]
    if missing:
        raise CoverageError(f"no prototype for words: {sorted(set(missing))}")
    rng = np.random.default_rng(as_count(rng_seed, "rng_seed", ShapeError, 0))
    count = len(ref_words)
    # One draw in row order gives the same values as one draw per word.
    noise = rng.normal(0.0, table.noise_sigma, (count * per_word, table.dim))
    protos = np.array([table.prototypes[w] for w in ref_words]).reshape(count, table.dim)
    frames = np.repeat(protos, per_word, axis=0) + noise
    boundaries = (np.arange(count, dtype=np.int64)[:, None] + [0, 1]) * per_word
    return frames, boundaries


def validate_boundaries(boundaries: Sequence[Boundary], num_frames: int) -> np.ndarray:
    """Spans are integer pairs, non-empty, inside [0, num_frames) and in order
    without overlap; returns them as an (n, 2) int64 array."""
    spans = as_array(boundaries, int, "boundary ends", AlignmentError)
    spans = spans.reshape(0, 2) if spans.shape == (0,) else spans
    if spans.ndim != 2 or spans.shape[1] != 2:
        raise AlignmentError(f"boundaries must be (start, end) pairs, got shape {spans.shape}")
    starts, ends = spans[:, 0], spans[:, 1]
    outside = (starts < 0) | (ends <= starts) | (ends > num_frames)
    if outside.any():
        start, end = spans[outside.argmax()]
        raise AlignmentError(f"boundary ({start}, {end}) outside frames [0, {num_frames})")
    overlaps = starts[1:] < ends[:-1]
    if overlaps.any():
        start, end = spans[overlaps.argmax() + 1]
        raise AlignmentError(f"boundary ({start}, {end}) overlaps previous span")
    return spans


def _frame_matrix(values, name: str) -> np.ndarray:
    """``values`` as a finite float64 (rows, dim) matrix; any other rank is a ShapeError."""
    matrix = as_array(values, float, name, ShapeError)
    if matrix.ndim != 2:
        raise ShapeError(f"{name} must be a 2D (rows, dim) matrix, got {matrix.shape}")
    return matrix


def mean_pool_awe(frames: np.ndarray, boundaries: Sequence[Boundary]) -> np.ndarray:
    """Per-word acoustic vectors: arithmetic mean of each boundary interval.

    One gather reads a (longest span, words, dim) block: slot i of a word
    is its span's frame ``start + i``, or a -0.0 row past the span's end.
    The block's rows are added in frame order, so each word's sum is the
    loop ``frames[start] + frames[start + 1] + ...`` (adding -0.0 changes
    no float), and then divided by the span length.
    """
    frames = _frame_matrix(frames, "frames")
    spans = validate_boundaries(boundaries, frames.shape[0])
    num_frames, dim = frames.shape
    if len(spans) == 0:
        return np.zeros((0, dim))
    starts = spans[:, 0]
    lengths = spans[:, 1] - starts
    slots = np.arange(lengths.max())[:, None]
    index = starts + slots
    index[slots >= lengths] = num_frames
    block = np.vstack([frames, np.full((1, dim), -0.0)])[index]
    # Row by row, not block.sum(axis=0): numpy sums a contiguous run pairwise,
    # which it is when the block holds one word of one feature.
    total = block[0]
    for row in block[1:]:
        total += row
    return total / lengths[:, None]


def fft_resample(frames: np.ndarray, target_len: int) -> np.ndarray:
    """Fourier resampling of each feature column to ``target_len`` rows.

    The real spectrum of the F source rows is truncated or zero-padded to
    L rows, inverse transformed and rescaled by L/F; L = F reduces to a
    copy. When L != F and N = min(F, L) is even, the shorter side has
    one Nyquist bin at N/2 for the frequencies +N/2 and -N/2 that the
    longer side holds apart: that bin is halved when upsampling (split
    in two) and doubled when downsampling (the two folded into one).
    """
    frames = _frame_matrix(frames, "frames")
    if frames.shape[0] < 1:
        raise ShapeError("fft_resample expects at least one frame")
    rows = as_count(target_len, "target_len", ShapeError)
    source_len = frames.shape[0]
    spectrum = np.fft.rfft(frames, axis=0)
    shared = min(source_len, rows)
    if shared % 2 == 0 and rows != source_len:
        spectrum[shared // 2] *= 0.5 if rows > source_len else 2.0
    return np.fft.irfft(spectrum, n=rows, axis=0) * (rows / source_len)


class DsuSequence(NamedTuple):
    """Fixed-length per-word vectors with a padding mask."""

    vectors: np.ndarray
    pad_mask: np.ndarray


def pad_dsu(awe: np.ndarray, target_len: int) -> DsuSequence:
    """Zero-pad word vectors up to the word-embedding length."""
    rows = as_count(target_len, "target_len", ShapeError)
    awe = _frame_matrix(awe, "awe")
    count = awe.shape[0]
    if count > rows:
        raise ShapeError(f"{count} acoustic rows exceed target_len {rows}")
    vectors = np.zeros((rows, awe.shape[1]))
    vectors[:count] = awe
    mask = np.zeros(rows, dtype=bool)
    mask[:count] = True
    return DsuSequence(vectors, mask)


def project_features(raw: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine feature-to-model-dim adapter with a tanh nonlinearity."""
    return tanh(linear(raw, weight, bias))
