"""A ceiling on the Python calls one K=2 message costs, end to end.

The per-message cost of the live stack is mostly the number of Python
calls each copy makes on its way (DESIGN.md §13).  This test counts them
exactly, without sockets or an event loop: ``diamond()`` from
``test_wire_kpaths_memo.py`` runs four real overlay nodes over an
in-memory socket, node 1 sends K=2 messages to node 4, and
``sys.setprofile`` counts every ``call`` event of the send, the two
relays, the destination's two copies and every ACK.  The count depends
only on the code and the interpreter, so it does not drift with the
machine; it does move between CPython minor versions (3.12 inlines
comprehensions, and which helpers run as Python code differs between
releases), so the pin applies on the version it was measured on.

A change that makes a message cost more calls fails here; if the cost
is deliberate, raise :data:`CEILING` in the same change and say why.
"""

from __future__ import annotations

import gc
import sys

import pytest

from repro.overlay.config import DisseminationMethod
from tests.test_wire_kpaths_memo import diamond

#: Python calls per message, as measured on CPython 3.11 (the previous
#: code made 544).
CEILING = 498.0
#: The interpreter :data:`CEILING` was measured on.
MEASURED_ON = (3, 11)

WARM_UP = 5
MESSAGES = 20


def calls_per_message() -> float:
    net, nodes = diamond()
    delivered = []
    nodes[4].on_deliver = delivered.append

    def send() -> None:
        nodes[1].send_priority(4, size_bytes=100, payload=b"x" * 100,
                               method=DisseminationMethod.k_paths(2))
        net.run()

    for _ in range(WARM_UP):
        send()
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    # A collection would run any gc.callbacks (Hypothesis installs one
    # to time collections), each a Python call; none runs while counting.
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        for _ in range(MESSAGES):
            send()
    finally:
        sys.setprofile(previous)
        if was_enabled:
            gc.enable()
    assert len(delivered) == WARM_UP + MESSAGES
    return calls / MESSAGES


@pytest.mark.skipif(sys.version_info[:2] != MEASURED_ON,
                    reason="the call count is pinned for CPython 3.11")
def test_a_k2_message_costs_no_more_calls_than_the_ceiling():
    measured = calls_per_message()
    assert measured <= CEILING, (
        f"{measured} Python calls per K=2 message, ceiling {CEILING}"
    )
