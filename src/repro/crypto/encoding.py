"""Canonical byte encoding of message fields.

Signatures and MACs must cover a *canonical* serialization: two parties
encoding the same logical fields must produce identical bytes, and no two
distinct field tuples may encode to the same bytes (otherwise an attacker
could shift bytes between fields).  We use a simple recursive
length-prefixed tagged encoding over the primitive types that appear in
protocol messages.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.errors import CryptoError

#: What a signed tuple holds in place of a NaN float.  CPython >= 3.10
#: hashes NaN by object identity, so a NaN field would make a SIMULATED
#: tag (a builtin hash of the tuple) depend on which NaN object was
#: signed: a decoded copy would fail to verify.  A string hashes by value
#: (alike in every process of a cluster, which pins PYTHONHASHSEED) and
#: no float field decodes to one.
NAN_FIELD = "NaN"


def nan_free(value: Any) -> Any:
    """``value``, or :data:`NAN_FIELD` when it is NaN."""
    return value if value == value else NAN_FIELD


def canonical_bytes(value: Any) -> bytes:
    """Encode ``value`` canonically.

    Supported types: ``None``, ``bool``, ``int``, ``float``, ``str``,
    ``bytes``, and (possibly nested) tuples/lists of these.
    """
    if value is None:
        return b"N"
    if value is True:
        return b"T"
    if value is False:
        return b"F"
    if isinstance(value, int):
        raw = value.to_bytes((value.bit_length() + 8) // 8 + 1, "big", signed=True)
        return b"I" + len(raw).to_bytes(4, "big") + raw
    if isinstance(value, float):
        return b"D" + struct.pack(">d", value)
    if isinstance(value, bytes):
        return b"B" + len(value).to_bytes(4, "big") + value
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return b"S" + len(raw).to_bytes(4, "big") + raw
    if isinstance(value, (tuple, list)):
        parts = [canonical_bytes(item) for item in value]
        body = b"".join(parts)
        return b"L" + len(value).to_bytes(4, "big") + body
    raise CryptoError(f"cannot canonically encode type {type(value).__name__}")
