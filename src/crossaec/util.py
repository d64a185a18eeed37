"""Small shared helpers: the argument rules and canonical JSON hashing. Each
rule has one implementation: ``as_number`` (which values are ints or floats),
``as_count`` (an int >= a floor, else the caller's error), ``as_real`` (a
finite float >= 0, else the caller's error), ``as_array`` (an int64 or float64
array of such numbers, else the caller's error), ``as_mask`` (a bool array of
bools, else the caller's error) and ``token_ids`` (integer ids inside the
vocabulary)."""

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
        try:
            return kind(value)
        except OverflowError:  # an int too large for a float
            return None
    if kind is float and isinstance(value, (float, np.floating)):
        return float(value)
    return None


def as_count(value, name: str, error: type, floor: int = 1) -> int:
    """``value`` as a plain int >= ``floor``; anything else raises ``error``."""
    count = as_number(value, int)
    if count is None or count < floor:
        raise error(f"{name} must be an integer >= {floor}, got {value!r}")
    return count


def as_real(value, name: str, error: type) -> float:
    """``value`` as a plain finite float >= 0; anything else raises ``error``."""
    real = as_number(value, float)
    if real is None or not 0 <= real < np.inf:  # NaN fails both comparisons
        raise error(f"{name} must be a finite number >= 0, got {value!r}")
    return real


_ARRAY_KINDS = {int: (np.int64, "integers", "i"), float: (np.float64, "numbers", "iuf")}


def as_array(values, kind: type, name: str, error: type) -> np.ndarray:
    """``values`` as an int64 (``kind=int``) or float64 (``kind=float``) array of
    numbers ``as_number`` takes as ``kind``, else ``error`` naming the first bad
    one. A non-empty ndarray's dtype says what it holds (the target dtype passes
    uncopied); numpy reads ``[4, True]`` as ints, so a sequence is read per element."""
    dtype, word, kinds = _ARRAY_KINDS[kind]
    if isinstance(values, np.ndarray) and values.dtype.kind in kinds:
        return values.astype(dtype, copy=False)
    # Unsigned ints go element by element: int64 would wrap those >= 2**63.
    if isinstance(values, np.ndarray) and values.size and values.dtype.kind != "u":
        raise error(f"{name} must be {word}, got an array of {values.dtype}")
    try:
        objects = np.asarray(values, dtype=object)
    except ValueError:  # arrays whose shapes differ past the first axis
        raise error(f"{name} must be {word}, got ragged rows") from None
    bad = [v for v in objects.flat if as_number(v, kind) is None]
    if bad:
        raise error(f"{name} must be {word}, got {bad[0]!r}")
    try:
        return objects.astype(dtype)
    except OverflowError:  # only int64 can: as_number took every float
        big = next(v for v in objects.flat if not -(2**63) <= int(v) < 2**63)
        raise error(f"{name} must fit in int64, got {big}") from None


def as_mask(values, name: str, error: type) -> np.ndarray:
    """``values`` as a bool array of bools, else ``error`` naming the first other
    element, none read by its truthiness. A bool ndarray passes uncopied."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "b":
        return values
    try:
        objects = np.asarray(values, dtype=object)
    except ValueError:  # arrays whose shapes differ past the first axis
        raise error(f"{name} must be booleans, got ragged rows") from None
    bad = [v for v in objects.flat if not isinstance(v, (bool, np.bool_))]
    if bad:
        raise error(f"{name} must be booleans, got {bad[0]!r}")
    return objects.astype(bool)


def token_ids(ids, vocab_size: int) -> np.ndarray:
    """``ids`` as an int64 array of integers in [0, vocab_size); a float or
    bool id, or one outside that range, is a VocabularyError naming it."""
    array = as_array(ids, int, "token ids", VocabularyError)
    if array.size and (array.min() < 0 or array.max() >= vocab_size):
        bad = array[(array < 0) | (array >= vocab_size)][0]
        raise VocabularyError(f"id {bad} outside vocabulary of size {vocab_size}")
    return array


def stable_hash(obj) -> str:
    """Short hex digest of an object's JSON form, keys sorted, no spaces."""
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
