"""Topology-aware key-tree organization ([BB01], Section 2.3 extension).

Quantifies the related-work claim the paper cites: if the key server
knows the multicast topology, placing topologically-close members in the
same key-tree subtree makes rekey multicasts cheaper *in network links*,
because each encrypted key's audience then occupies few multicast
subtrees.

The experiment builds the same group twice over one synthesized topology:

* **clustered** — members inserted cluster-by-cluster (receivers under
  the same top-level router go into adjacent key-tree leaves);
* **random** — members inserted in arrival order regardless of location;

then processes an identical departure batch and charges every encrypted
key the multicast link cost of its audience.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.crypto.material import KeyGenerator
from repro.keytree.flat import FlatKeyTree, FlatRekeyer
from repro.network.topology import MulticastTopology


@dataclass(frozen=True)
class TopologyGainResult:
    """Link-cost accounting for one placement strategy."""

    placement: str
    encrypted_keys: int
    total_link_cost: int

    @property
    def links_per_key(self) -> float:
        if self.encrypted_keys == 0:
            return 0.0
        return self.total_link_cost / self.encrypted_keys


def _run_placement(
    placement: str,
    topology: MulticastTopology,
    receivers: Sequence[str],
    departures: Sequence[str],
    degree: int,
    seed: int,
) -> TopologyGainResult:
    if placement == "clustered":
        clusters = topology.cluster_by_router(receivers, level=1)
        order: List[str] = [r for anchor in sorted(clusters) for r in clusters[anchor]]
    elif placement == "random":
        order = list(receivers)
        random.Random(seed).shuffle(order)
    else:
        raise ValueError("placement must be 'clustered' or 'random'")

    tree = FlatKeyTree(degree=degree, keygen=KeyGenerator(seed), name=f"topo-{placement}")
    rekeyer = FlatRekeyer(tree)
    rekeyer.rekey_batch(joins=[(r, None) for r in order])
    message = rekeyer.rekey_batch(departures=list(departures))

    # Who holds which wrapping key: every member on whose path it lies.
    # Wraps are made under keys the tree holds after the batch (a marked
    # child's fresh key included), so the tree as it stands covers them.
    holder_of: Dict[tuple, List[str]] = {}
    for member in tree.members():
        for node in tree.path_of(member):
            holder_of.setdefault(node.key.handle, []).append(member)

    # Cost-only experiment: the handle columns, never a row view, so no
    # wrap is ever sealed.
    keys = message.encrypted_keys
    total = 0
    for handle in zip(keys.wrapping_ids, keys.wrapping_versions):
        audience = holder_of.get(handle)
        if audience:
            total += topology.multicast_link_cost(audience)
    return TopologyGainResult(
        placement=placement,
        encrypted_keys=message.cost,
        total_link_cost=total,
    )


def topology_gain(
    receiver_count: int = 256,
    departure_count: int = 16,
    degree: int = 4,
    branching: int = 3,
    depth: int = 4,
    seed: int = 0,
) -> Dict[str, TopologyGainResult]:
    """Clustered vs random placement on one synthesized topology.

    Returns per-placement link-cost accounting; the [BB01] expectation is
    ``clustered.total_link_cost < random.total_link_cost`` at (nearly)
    equal encrypted-key counts.
    """
    topology, receivers = MulticastTopology.random_tree(
        receiver_count, branching=branching, depth=depth, seed=seed
    )
    departures = random.Random(seed + 1).sample(list(receivers), departure_count)
    return {
        placement: _run_placement(
            placement, topology, receivers, departures, degree, seed
        )
        for placement in ("clustered", "random")
    }
