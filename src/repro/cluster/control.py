"""The cluster control plane: authenticated, length-prefixed JSON frames.

Coordinator and shard workers talk over one TCP connection per shard.
Every frame is::

    u32 length | JSON bytes of {"mac": hex, "body": {...}}

where ``mac`` is HMAC-SHA256 of the canonical (sorted-keys, compact)
JSON encoding of ``body`` under the run's control key — derived
deterministically from the run seed, so every process computes the same
key without any exchange.  A frame with a bad MAC or malformed JSON
raises :class:`~repro.errors.LiveRuntimeError`; the control plane is a
trusted-coordinator channel, so authentication failure is fatal, not
droppable (unlike the UDP data plane, where bad input is routine).

Frame kinds (``body["kind"]``):

========== ============ ==========================================
kind       direction    payload
========== ============ ==========================================
hello      shard→coord  shard_id, addresses {node: [host, port]}
addr_map   coord→shard  addresses of *all* nodes
start      coord→shard  chaos schedule slice (or null)
heartbeat  shard→coord  shard_id, now, delivered count
join       coord→shard  signed membership record (+ address once known)
join_ack   shard→coord  joiner's bound address
leave      coord→shard  signed membership record
announce   shard→coord  node, new address after a supervised rebind
peer_update coord→shard node, new address (relayed announce)
stop       coord→shard  end of run; report requested
report     shard→coord  the shard's full report dict
========== ============ ==========================================
"""

from __future__ import annotations

import asyncio
import hashlib
import hmac as _hmac
import json
import struct
from typing import Any, Dict

from repro.errors import LiveRuntimeError

#: Upper bound on one control frame (a 100-node shard report with full
#: per-node telemetry is ~1-2 MB; 32 MB leaves an order of magnitude).
MAX_FRAME = 32 * 1024 * 1024

_LEN = struct.Struct("!I")


def control_key(seed: int) -> bytes:
    """The run's shared control-plane HMAC key (pure function of seed)."""
    return hashlib.sha256(f"repro-cluster-control:{seed}".encode()).digest()


def _canonical(body: Dict[str, Any]) -> bytes:
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


def encode_frame(key: bytes, body: Dict[str, Any]) -> bytes:
    """One authenticated frame, ready for a stream write."""
    canonical = _canonical(body)
    mac = _hmac.new(key, canonical, hashlib.sha256).hexdigest()
    blob = json.dumps({"mac": mac, "body": body}, sort_keys=True).encode()
    if len(blob) > MAX_FRAME:
        raise LiveRuntimeError(f"control frame too large ({len(blob)} bytes)")
    return _LEN.pack(len(blob)) + blob


def decode_frame(key: bytes, blob: bytes) -> Dict[str, Any]:
    """Verify and unwrap one frame body; raises on forgery/malformation."""
    try:
        outer = json.loads(blob)
        mac = outer["mac"]
        body = outer["body"]
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        # RecursionError: JSON nested deeper than the parser's stack,
        # which an unauthenticated peer can send far below MAX_FRAME.
        raise LiveRuntimeError(f"malformed control frame: {exc}") from None
    if not isinstance(body, dict) or not isinstance(mac, str):
        raise LiveRuntimeError("malformed control frame: bad shape")
    expected = _hmac.new(key, _canonical(body), hashlib.sha256).hexdigest()
    if not _hmac.compare_digest(expected, mac):
        raise LiveRuntimeError("control frame failed authentication")
    return body


async def write_frame(
    writer: asyncio.StreamWriter, key: bytes, body: Dict[str, Any]
) -> None:
    """Send one authenticated frame and drain the stream."""
    writer.write(encode_frame(key, body))
    await writer.drain()


async def read_frame(reader: asyncio.StreamReader, key: bytes) -> Dict[str, Any]:
    """Read, verify, and unwrap the next frame (raises at EOF)."""
    header = await reader.readexactly(_LEN.size)
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME:
        raise LiveRuntimeError(f"control frame claims {length} bytes")
    blob = await reader.readexactly(length)
    return decode_frame(key, blob)
