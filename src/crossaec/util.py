"""Small shared helpers: the argument rules, seed derivation, canonical JSON
hashing. Each rule has one implementation: ``as_number`` (which values are
ints or floats), ``as_count`` (an int >= a floor, else the caller's error)
and ``token_ids`` (integer ids inside the vocabulary)."""

from __future__ import annotations

import hashlib
import json

import numpy as np

from crossaec.errors import VocabularyError


def as_number(value, kind: type) -> int | float | None:
    """``value`` as a plain ``kind`` (int or float), or None if it is not one:
    ints count as either kind and floats as float, numpy's as well as Python's,
    but ``bool`` never does (True is not a size, a seed or a rate)."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return kind(value)
    if kind is float and isinstance(value, (float, np.floating)):
        return float(value)
    return None


def as_count(value, name: str, error: type, floor: int = 1) -> int:
    """``value`` as a plain int >= ``floor``; anything else raises ``error``."""
    count = as_number(value, int)
    if count is None or count < floor:
        raise error(f"{name} must be an integer >= {floor}, got {value!r}")
    return count


def token_ids(ids, vocab_size: int) -> np.ndarray:
    """``ids`` as an int64 array of integers in [0, vocab_size); a float or
    bool id, or one outside that range, is a VocabularyError naming it."""
    array = np.asarray(ids)
    if array.size and not np.issubdtype(array.dtype, np.integer):
        bad = array.ravel()[:1].tolist()[0]
        raise VocabularyError(f"token ids must be integers, got {bad!r}")
    if array.size and (array.min() < 0 or array.max() >= vocab_size):
        bad = array[(array < 0) | (array >= vocab_size)][0]
        raise VocabularyError(f"id {bad} outside vocabulary of size {vocab_size}")
    return array.astype(np.int64, copy=False)


def derive_seed(*parts) -> int:
    """Derive a stable 63-bit seed from any printable parts.

    Used to give every sub-task (corpus line, training arm, channel) its
    own independent stream from one experiment seed.
    """
    key = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & 0x7FFF_FFFF_FFFF_FFFF


def stable_hash(obj) -> str:
    """Short hex digest of an object's JSON form, keys sorted, no spaces."""
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
