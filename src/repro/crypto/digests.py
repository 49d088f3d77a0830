"""Hashing helpers used throughout the ledger and consensus layers."""

from __future__ import annotations

import hashlib


def sha256_hex(data: bytes | str) -> str:
    """Hex SHA-256 digest of ``data`` (strings are UTF-8 encoded)."""
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def hash_pair(left: str, right: str) -> str:
    """Digest of two hex digests, used for Merkle interior nodes.

    The two inputs are length-prefixed before hashing so that
    ``hash_pair(a, b)`` cannot collide with a differently split pair.
    """
    material = f"{len(left)}:{left}|{len(right)}:{right}"
    return sha256_hex(material)

