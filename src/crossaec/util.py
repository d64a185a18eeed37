"""Small shared helpers: seed derivation and canonical JSON hashing."""

from __future__ import annotations

import hashlib
import json


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
