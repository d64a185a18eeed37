"""Synthetic frame features, word boundaries, pooled word vectors, resampling.

Frames stand in for self-supervised speech features: each spoken word
contributes a run of frames drawn from its prototype vector plus noise.
Frames are made in memory from a ``PrototypeTable`` and a seed and never
touch disk, so the table is where non-finite values are rejected.
Word-level acoustic vectors are means over boundary intervals; the
continuous baselines are Fourier-resampled frame sequences.
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

Boundary = Tuple[int, int]


@dataclass
class PrototypeTable:
    """Word -> prototype vector, plus the frame noise level.

    Designated confusable pairs must keep their prototypes at least
    4*noise_sigma apart so the acoustic signal can separate them.
    """

    prototypes: Dict[str, np.ndarray]
    noise_sigma: float
    confusable_pairs: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self):
        if self.noise_sigma < 0:
            raise ShapeError("noise_sigma must be >= 0")
        if not self.prototypes:
            raise CoverageError("prototype table has no words")
        shapes = {np.shape(v) for v in self.prototypes.values()}
        if len(shapes) != 1 or len(next(iter(shapes))) != 1:
            raise ShapeError(
                f"prototypes must be vectors of one dimension, got shapes "
                f"{sorted(shapes)}"
            )
        finite = np.isfinite(np.array(list(self.prototypes.values()))).all(axis=1)
        if not finite.all():
            word = list(self.prototypes)[int(np.argmin(finite))]
            raise DegenerateInputError(f"prototype for {word!r} is not finite")
        for a, b in self.confusable_pairs:
            if a not in self.prototypes or b not in self.prototypes:
                raise CoverageError(f"confusable pair ({a}, {b}) has no prototype")
            gap = float(np.linalg.norm(self.prototypes[a] - self.prototypes[b]))
            if gap < 4.0 * self.noise_sigma:
                raise CoverageError(
                    f"prototypes for confusable pair ({a}, {b}) are only "
                    f"{gap:.4f} apart (< 4 * noise_sigma)"
                )

    @property
    def dim(self) -> int:
        return next(iter(self.prototypes.values())).shape[0]


def build_prototypes(
    words: Sequence[str],
    confusable_pairs: Sequence[Tuple[str, str]],
    feature_dim: int,
    noise_sigma: float,
    seed: int,
    clusters: Optional[int] = None,
) -> PrototypeTable:
    """Random prototypes; ``clusters`` collapses words onto shared vectors.

    ``clusters=1`` makes the acoustics carry no word identity at all (the
    uninformative-control construction); confusable pairs then cannot be
    requested.
    """
    rng = np.random.default_rng(seed)
    if clusters is None:
        vectors = {w: rng.normal(0.0, 1.0, feature_dim) for w in words}
    else:
        if confusable_pairs:
            raise CoverageError(
                "clustered prototypes cannot guarantee confusable-pair separation"
            )
        centers = rng.normal(0.0, 1.0, (clusters, feature_dim))
        vectors = {w: centers[i % clusters].copy() for i, w in enumerate(words)}
    for a, b in confusable_pairs:
        if a not in vectors or b not in vectors:
            raise CoverageError(f"confusable pair ({a}, {b}) not in word list")
        while np.linalg.norm(vectors[a] - vectors[b]) < 4.0 * noise_sigma:
            vectors[b] = rng.normal(0.0, 1.0, feature_dim)
    return PrototypeTable(
        prototypes=vectors,
        noise_sigma=noise_sigma,
        confusable_pairs=tuple(confusable_pairs),
    )


def synth_frames(
    ref_words: Sequence[str],
    table: PrototypeTable,
    frames_per_word: int,
    rng_seed: int,
) -> Tuple[np.ndarray, List[Boundary]]:
    """Frames for the spoken reference: prototype + gaussian noise per frame.

    Returns the frame matrix and the exact per-reference-word boundaries.
    """
    if frames_per_word < 1:
        raise ShapeError("frames_per_word must be >= 1")
    missing = [w for w in ref_words if w not in table.prototypes]
    if missing:
        raise CoverageError(f"no prototype for words: {sorted(set(missing))}")
    rng = np.random.default_rng(rng_seed)
    count = len(ref_words)
    # One draw in row order gives the same values as one draw per word.
    noise = rng.normal(0.0, table.noise_sigma, (count * frames_per_word, table.dim))
    protos = np.array([table.prototypes[w] for w in ref_words])
    protos = protos.reshape(count, table.dim)
    frames = np.repeat(protos, frames_per_word, axis=0) + noise
    boundaries: List[Boundary] = [
        (i * frames_per_word, (i + 1) * frames_per_word) for i in range(count)
    ]
    return frames, boundaries


def validate_boundaries(
    boundaries: Sequence[Boundary], num_frames: int, context: str = ""
) -> List[Boundary]:
    prev_end = 0
    checked = []
    for start, end in boundaries:
        if not (0 <= start < end <= num_frames):
            raise AlignmentError(
                f"{context}boundary ({start}, {end}) outside frames [0, {num_frames})"
            )
        if start < prev_end:
            raise AlignmentError(
                f"{context}boundary ({start}, {end}) overlaps previous interval"
            )
        prev_end = end
        checked.append((int(start), int(end)))
    return checked


def load_alignment(record, num_frames: int) -> List[Boundary]:
    """Validated hyp-word boundaries from a corpus record.

    Their count is the record's own invariant (one per hypothesis word).
    """
    if record.boundaries is None:
        raise AlignmentError(f"record {record.id!r} carries no boundaries")
    return validate_boundaries(
        record.boundaries, num_frames, context=f"record {record.id!r}: "
    )


def mean_pool_awe(frames: np.ndarray, boundaries: Sequence[Boundary]) -> np.ndarray:
    """Per-word acoustic vectors: arithmetic mean of each boundary interval."""
    frames = np.asarray(frames, dtype=np.float64)
    validate_boundaries(boundaries, frames.shape[0])
    if not boundaries:
        return np.zeros((0, frames.shape[1]))
    return np.stack([frames[s:e].mean(axis=0) for s, e in boundaries])


def fft_resample(frames: np.ndarray, target_len: int) -> np.ndarray:
    """Fourier resampling of each feature column to ``target_len`` rows.

    The spectrum keeps bin 0, bins 1..ceil((L-1)/2) and their conjugate
    images (truncating or zero-padding as needed), then inverse
    transforms and rescales by L/F. L = F reduces to a full copy.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] < 1:
        raise ShapeError("fft_resample expects a non-empty 2D frame matrix")
    if target_len < 1:
        raise ShapeError("target_len must be >= 1")
    source_len = frames.shape[0]
    spectrum = np.fft.fft(frames, axis=0)
    kept = min(source_len, target_len)
    pos = kept // 2  # == ceil((kept - 1) / 2) for both parities
    out_spec = np.zeros((target_len, frames.shape[1]), dtype=complex)
    out_spec[0] = spectrum[0]
    if pos >= 1:
        out_spec[1 : pos + 1] = spectrum[1 : pos + 1]
        neg = kept - 1 - pos
        if neg >= 1:
            out_spec[target_len - neg :] = spectrum[source_len - neg :]
    resampled = np.fft.ifft(out_spec, axis=0).real * (target_len / source_len)
    return resampled


class DsuSequence(NamedTuple):
    """Fixed-length per-word vectors with a padding mask."""

    vectors: np.ndarray
    pad_mask: np.ndarray


def pad_dsu(awe: np.ndarray, target_len: int) -> DsuSequence:
    """Zero-pad word vectors up to the word-embedding length."""
    awe = np.asarray(awe, dtype=np.float64)
    count = awe.shape[0]
    if count > target_len:
        raise ShapeError(
            f"{count} acoustic rows exceed the target length {target_len}"
        )
    vectors = np.zeros((target_len, awe.shape[1]))
    vectors[:count] = awe
    mask = np.zeros(target_len, dtype=bool)
    mask[:count] = True
    return DsuSequence(vectors, mask)


def project_features(raw: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine feature-to-model-dim adapter with a tanh nonlinearity."""
    return tanh(linear(raw, weight, bias))
