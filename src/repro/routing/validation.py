"""MTMW enforcement for routing updates.

The Maximal Topology with Minimal Weights turns routing updates into
checkable claims: an update is valid only if (1) its signature verifies,
(2) the link exists in the MTMW, (3) the issuer is an endpoint of that
link, and (4) the claimed weight is not below the administrator-assigned
minimum.  Violations of (3) or (4) are *provable misbehaviour* — the
update is signed by the issuer — so the issuer is marked compromised.

This is what prevents routing attacks: a black hole (advertising
artificially low weights to attract traffic) would require violating (4);
a wormhole (advertising a non-existent shortcut between distant nodes)
would require violating (2) or (3); and a Sybil node is rejected by (1)
since it has no key in the PKI.
"""

from __future__ import annotations

import enum

from repro.crypto.pki import Pki
from repro.routing.link_state import LinkStateUpdate
from repro.topology.mtmw import Mtmw


class UpdateResult(enum.Enum):
    """Outcome of validating one routing update."""

    ACCEPTED = "accepted"
    STALE = "stale"                        # overtaken by a newer seqno
    RATE_LIMITED = "rate_limited"
    BAD_SIGNATURE = "bad_signature"
    UNKNOWN_LINK = "unknown_link"          # provable: not in the MTMW
    NOT_ENDPOINT = "not_endpoint"          # provable: issuer not on the link
    BELOW_MIN_WEIGHT = "below_min_weight"  # provable: black-hole attempt

    @property
    def proves_compromise(self) -> bool:
        """True when a validly signed update with this outcome can only be
        produced by a compromised node."""
        return self in (
            UpdateResult.UNKNOWN_LINK,
            UpdateResult.NOT_ENDPOINT,
            UpdateResult.BELOW_MIN_WEIGHT,
        )


def validate_update(update: LinkStateUpdate, mtmw: Mtmw, pki: Pki) -> UpdateResult:
    """Apply the MTMW validation rules to ``update``.

    Returns the first violated rule; signature validity is checked first
    because only a genuine signature makes the other violations provable.
    Staleness and rate limiting are checked by the caller (they need the
    per-issuer state that lives in :class:`repro.routing.state.RoutingState`).
    """
    if not update.verify(pki):
        return UpdateResult.BAD_SIGNATURE
    if not mtmw.is_edge(update.edge_a, update.edge_b):
        return UpdateResult.UNKNOWN_LINK
    if update.issuer not in (update.edge_a, update.edge_b):
        return UpdateResult.NOT_ENDPOINT
    # Written so that NaN fails it: a NaN report would otherwise outrank
    # the other endpoint's in the max of the two (RoutingState).
    if not update.weight >= mtmw.min_weight(update.edge_a, update.edge_b) - 1e-12:
        return UpdateResult.BELOW_MIN_WEIGHT
    return UpdateResult.ACCEPTED
