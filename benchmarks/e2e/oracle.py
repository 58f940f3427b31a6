"""Output oracle: what every workload's run must satisfy to count.

Each check returns a list of violation strings (empty = pass).  Besides the
outputs — every delivered message was sent, none twice, payloads intact,
reliable flows in order and complete after the drain, no runtime error — the
oracle asserts the *configuration* is the defended one, so no later change
can buy speed by switching a check off.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

from repro.crypto.pki import PkiMode
from repro.errors import WireDecodeError
from repro.link.por import PorAck
from repro.overlay.config import CryptoMode
from repro.runtime.wire import decode_datagram, encode_datagram


def check_generator(gen: Any, undelivered: int) -> List[str]:
    """Delivery evidence the generator collected while it ran."""
    problems = []
    if gen.unexpected_deliveries:
        problems.append(
            f"{gen.unexpected_deliveries} deliveries of a message never sent "
            "or already delivered"
        )
    if gen.payload_mismatches:
        problems.append(f"{gen.payload_mismatches} delivered payloads differ from what was sent")
    if gen.order_violations:
        problems.append(f"{gen.order_violations} reliable deliveries out of order")
    if gen.ordered_flows and undelivered:
        problems.append(
            f"{undelivered} accepted reliable messages undelivered after the drain"
        )
    if gen.delivered + gen.timed_out + undelivered != gen.issued:
        problems.append(
            f"accounting: issued {gen.issued} != delivered {gen.delivered} "
            f"+ timed out {gen.timed_out} + undelivered {undelivered}"
        )
    return problems


def check_defended(config: Any, pki: Any) -> List[str]:
    """The overlay runs with its integrity checks on."""
    problems = []
    if not config.por.check_macs:
        problems.append("PorConfig.check_macs is off")
    if config.crypto is not CryptoMode.SIMULATED or pki.mode is not PkiMode.SIMULATED:
        problems.append(f"crypto mode is {config.crypto.value}/{pki.mode.value}, not simulated")
    # CRC trailer: one flipped body bit must be rejected at decode.
    datagram = bytearray(encode_datagram(1, 2, PorAck(0, 7, b"\x00" * 16)))
    datagram[-1] ^= 0x01
    try:
        decode_datagram(bytes(datagram))
    except WireDecodeError:
        pass
    else:
        problems.append("a corrupted datagram decoded: the wire CRC is off")
    return problems


def check_counters(counters: Dict[str, float], runtime_errors: Iterable[str]) -> List[str]:
    """Nothing was dropped for being malformed, forged or unhandled."""
    problems = [f"runtime error: {error}" for error in runtime_errors]
    for name in ("decode_errors", "dispatch_errors", "macs_rejected", "invalid_signatures"):
        if counters.get(name):
            problems.append(f"{name} = {int(counters[name])} (must be 0)")
    return problems
