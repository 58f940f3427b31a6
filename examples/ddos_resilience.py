#!/usr/bin/env python3
"""Surviving Internet-level attacks: BGP hijacking and Crossfire DDoS.

Section IV's resilient networking architecture, executable: the overlay's
links ride on a multi-ISP underlay with multihoming.  We hit it with the
two attacks of Figure 2 and the BGP-hijack scenario and watch the overlay
keep a transatlantic flow alive throughout.

Run:  python examples/ddos_resilience.py
"""

from repro import OverlayConfig
from repro.resilience.bgp import BgpHijack
from repro.resilience.ddos import RotatingLinkAttack
from repro.resilience.underlay import Underlay
from repro.resilience.variants import assign_variants
from repro.workloads.experiment import Deployment

ISPS = ["telia", "ntt", "cogent"]
FLOW = (6, 2)  # London -> Dallas


def goodput(deployment, start, end):
    return deployment.network.flow_goodput(*FLOW).average_mbps(start, end)


def main() -> None:
    deployment = Deployment(
        config=OverlayConfig(link_bandwidth_bps=1e6), seed=17
    )
    topo = deployment.topology

    # Contract ISPs: the diverse-assignment optimizer picks each node's
    # primary provider; every node multihomes with a second one.
    families = assign_variants(topo, variants=3)
    contracts = {
        node: [ISPS[f], ISPS[(f + 1) % 3]] for node, f in families.items()
    }
    underlay = Underlay(deployment.network, contracts)
    print("underlay: 3 ISPs, every node multihomed with 2 providers")

    deployment.add_flow(*FLOW, rate_fraction=0.3)
    deployment.run(10.0)
    t0 = goodput(deployment, 2, 10)
    print(f"baseline: London->Dallas at {t0:.3f} Mbps")

    # ------------------------------------------------------------------
    print("\n[attack 1] BGP hijack: all cross-ISP Internet routes diverted")
    hijack = BgpHijack(underlay)
    hijack.start()
    deployment.run(10.0)
    t1 = goodput(deployment, 12, 20)
    print(f"  links usable: {len(underlay.usable_links())}/32 "
          f"(same-ISP combinations keep them up)")
    print(f"  flow goodput during hijack: {t1:.3f} Mbps")
    hijack.stop()

    # ------------------------------------------------------------------
    print("\n[attack 2] Crossfire-style rotating flood on the flow's links")
    # 4 of London's 5 overlay links (the attacker does not know about,
    # or cannot reach, the London-Washington fiber).
    targets = [(6, 3), (6, 7), (6, 8), (1, 6)]
    attack = RotatingLinkAttack(
        deployment.sim, underlay, targets, rotation_period=0.5, breadth=1
    )
    attack.start()
    deployment.run(10.0)
    t2 = goodput(deployment, 22, 30)
    print(f"  attacker floods 1 ISP-combination per link per rotation")
    print(f"  flow goodput under rotating DDoS: {t2:.3f} Mbps "
          f"(multihoming defeats narrow flooding)")

    # ------------------------------------------------------------------
    print("\n[attack 3] the attacker widens to all 4 combinations at once")
    attack.breadth = 4
    deployment.run(10.0)
    t3 = goodput(deployment, 32, 40)
    dead = [link for link in targets if not underlay.link_usable(*link)]
    print(f"  London links dead: {dead} (4 of its 5)")
    print(f"  flow goodput: {t3:.3f} Mbps "
          f"(the overlay reroutes over the surviving London-Washington link)")
    attack.stop()

    assert t1 > 0.8 * t0 and t2 > 0.8 * t0 and t3 > 0.8 * t0
    print("\nthe flow never lost its throughput: the combination of "
          "multihoming, diverse providers,\nand overlay rerouting survives "
          "everything short of a simultaneous multi-ISP meltdown.")


if __name__ == "__main__":
    main()
