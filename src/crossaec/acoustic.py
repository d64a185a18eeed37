"""Synthetic frame features, word boundaries, pooled word vectors, resampling.

Frames stand in for self-supervised speech features: each spoken word
contributes a run of frames drawn from its prototype vector plus noise.
Frames are made in memory from a ``PrototypeTable`` and a seed and never
touch disk, so the table is where non-finite values are rejected.
Word-level acoustic vectors are means over boundary intervals, and
``mean_pool_awe`` is where those intervals are checked against the
frames; the continuous baselines are Fourier-resampled frame sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from crossaec.errors import (
    AlignmentError,
    CoverageError,
    DegenerateInputError,
    ShapeError,
)
from crossaec.nn.tensor import Tensor, linear, tanh
from crossaec.util import as_count, as_number

Boundary = Tuple[int, int]


@dataclass
class PrototypeTable:
    """Word -> prototype vector of one shared dimension, plus the frame
    noise level: finite vectors and a finite ``noise_sigma`` >= 0."""

    prototypes: Dict[str, np.ndarray]
    noise_sigma: float

    def __post_init__(self):
        sigma = as_number(self.noise_sigma, float)
        if sigma is None:
            raise ShapeError(f"noise_sigma must be a number, got {self.noise_sigma!r}")
        if not np.isfinite(sigma):
            raise DegenerateInputError(f"noise_sigma is not finite: {sigma}")
        if sigma < 0:
            raise ShapeError("noise_sigma must be >= 0")
        self.noise_sigma = sigma
        if not self.prototypes:
            raise CoverageError("prototype table has no words")
        shapes = {np.shape(v) for v in self.prototypes.values()}
        if len(shapes) != 1 or [len(s) for s in shapes] != [1] or (0,) in shapes:
            raise ShapeError(
                f"prototypes must be non-empty vectors of one dimension, got "
                f"shapes {sorted(shapes)}"
            )
        # float64 arrays pass through np.asarray uncopied.
        self.prototypes = {
            w: np.asarray(v, dtype=np.float64) for w, v in self.prototypes.items()
        }
        finite = np.isfinite(np.array(list(self.prototypes.values()))).all(axis=1)
        if not finite.all():
            word = list(self.prototypes)[int(np.argmin(finite))]
            raise DegenerateInputError(f"prototype for {word!r} is not finite")

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

    ``clusters`` collapses words onto that many shared vectors;
    ``clusters=1`` makes the acoustics carry no word identity at all (the
    uninformative-control construction).
    """
    dim = as_count(feature_dim, "feature_dim", ShapeError)
    rng = np.random.default_rng(seed)
    if clusters is None:
        vectors = {w: rng.normal(0.0, 1.0, dim) for w in words}
    else:
        count = as_count(clusters, "clusters", ShapeError)
        centers = rng.normal(0.0, 1.0, (count, dim))
        vectors = {w: centers[i % count].copy() for i, w in enumerate(words)}
    return PrototypeTable(prototypes=vectors, noise_sigma=noise_sigma)


def synth_frames(
    ref_words: Sequence[str],
    table: PrototypeTable,
    frames_per_word: int,
    rng_seed: int,
) -> Tuple[np.ndarray, List[Boundary]]:
    """Frames for the spoken reference: prototype + gaussian noise per frame.

    Returns the frame matrix and the exact per-reference-word boundaries.
    """
    per_word = as_count(frames_per_word, "frames_per_word", ShapeError)
    missing = [w for w in ref_words if w not in table.prototypes]
    if missing:
        raise CoverageError(f"no prototype for words: {sorted(set(missing))}")
    rng = np.random.default_rng(rng_seed)
    count = len(ref_words)
    # One draw in row order gives the same values as one draw per word.
    noise = rng.normal(0.0, table.noise_sigma, (count * per_word, table.dim))
    protos = np.array([table.prototypes[w] for w in ref_words])
    protos = protos.reshape(count, table.dim)
    frames = np.repeat(protos, per_word, axis=0) + noise
    boundaries: List[Boundary] = [
        (i * per_word, (i + 1) * per_word) for i in range(count)
    ]
    return frames, boundaries


def validate_boundaries(boundaries: Sequence[Boundary], num_frames: int) -> None:
    """Spans are integer pairs, non-empty, inside [0, num_frames) and in order
    without overlap."""
    prev_end = 0
    for span in boundaries:
        try:
            start, end = span
        except (TypeError, ValueError):
            raise AlignmentError(f"boundary {span!r} is not a (start, end) pair") from None
        if as_number(start, int) is None or as_number(end, int) is None:
            raise AlignmentError(f"boundary ({start!r}, {end!r}) ends must be integers")
        if not (0 <= start < end <= num_frames):
            raise AlignmentError(
                f"boundary ({start}, {end}) outside frames [0, {num_frames})"
            )
        if start < prev_end:
            raise AlignmentError(f"boundary ({start}, {end}) overlaps previous span")
        prev_end = end


def _frame_matrix(values, name: str) -> np.ndarray:
    """``values`` as a float64 (rows, dim) matrix; any other rank is a ShapeError."""
    matrix = np.asarray(values, dtype=np.float64)
    if matrix.ndim != 2:
        raise ShapeError(f"{name} must be a 2D (rows, dim) matrix, got {matrix.shape}")
    return matrix


def mean_pool_awe(frames: np.ndarray, boundaries: Sequence[Boundary]) -> np.ndarray:
    """Per-word acoustic vectors: arithmetic mean of each boundary interval."""
    frames = _frame_matrix(frames, "frames")
    validate_boundaries(boundaries, frames.shape[0])
    if len(boundaries) == 0:
        return np.zeros((0, frames.shape[1]))
    return np.stack([frames[s:e].mean(axis=0) for s, e in boundaries])


def fft_resample(frames: np.ndarray, target_len: int) -> np.ndarray:
    """Fourier resampling of each feature column to ``target_len`` rows.

    The spectrum keeps bin 0, bins 1..ceil((L-1)/2) and their conjugate
    images (truncating or zero-padding as needed), then inverse
    transforms and rescales by L/F. L = F reduces to a full copy.
    """
    frames = _frame_matrix(frames, "frames")
    if frames.shape[0] < 1:
        raise ShapeError("fft_resample expects at least one frame")
    rows = as_count(target_len, "target_len", ShapeError)
    source_len = frames.shape[0]
    spectrum = np.fft.fft(frames, axis=0)
    kept = min(source_len, rows)
    pos = kept // 2  # == ceil((kept - 1) / 2) for both parities
    out_spec = np.zeros((rows, frames.shape[1]), dtype=complex)
    out_spec[0] = spectrum[0]
    if pos >= 1:
        out_spec[1 : pos + 1] = spectrum[1 : pos + 1]
        neg = kept - 1 - pos
        if neg >= 1:
            out_spec[rows - neg :] = spectrum[source_len - neg :]
    return np.fft.ifft(out_spec, axis=0).real * (rows / source_len)


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
