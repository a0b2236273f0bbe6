"""Section 4: the loss-homogenized multi-keytree key server.

The server maintains one key tree per loss class and places each joiner in
the tree whose nominal loss rate is nearest the rate the member reported
at join time (piggybacked on NACKs in past sessions, Section 4.2).  Once
placed, a member is never moved — re-homogenizing on drifting estimates
would cost more than it saves, which is exactly what the Fig. 7
misplacement experiment quantifies.

``placement="random"`` gives the control scheme of Fig. 6: the same
number of trees, members spread round-robin, no homogenization.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.crypto.material import KeyGenerator
from repro.server.partitioned import PartitionedServer, TreePartition
from repro.server.placement import NearestLossPlacement, RoundRobinPlacement

_PLACEMENTS = {"loss": NearestLossPlacement, "random": RoundRobinPlacement}


class LossHomogenizedServer(PartitionedServer):
    """One key tree per loss class under a common group DEK.

    Parameters
    ----------
    class_rates:
        Nominal per-class loss rates, one tree each (default the paper's
        ``(ph, pl) = (0.20, 0.02)``).
    placement:
        ``"loss"`` (nearest nominal rate — our scheme) or ``"random"``
        (round-robin — the Fig. 6 control).
    degree:
        Key-tree degree.
    """

    kind = "loss-homogenized"

    def __init__(
        self,
        class_rates: Sequence[float] = (0.20, 0.02),
        placement: str = "loss",
        degree: int = 4,
        keygen: Optional[KeyGenerator] = None,
        group: str = "group",
    ) -> None:
        if placement not in _PLACEMENTS:
            raise ValueError("placement must be 'loss' or 'random'")
        keygen = keygen if keygen is not None else KeyGenerator()
        rates = tuple(sorted(set(class_rates), reverse=True))
        partitions = [
            TreePartition.build(label, f"{group}/{label}", degree, keygen)
            for label in (f"tree-p{rate:g}" for rate in rates)
        ]
        super().__init__(
            partitions, _PLACEMENTS[placement](rates), True, keygen=keygen, group=group
        )

    @property
    def placement(self) -> str:
        return "loss" if isinstance(self.policy, NearestLossPlacement) else "random"

    @property
    def name(self) -> str:
        return f"loss-homogenized[{self.placement}]"

    @property
    def class_rates(self) -> Tuple[float, ...]:
        return tuple(self.policy.class_rates)

    def tree_of(self, member_id: str) -> float:
        """The nominal class rate of the tree holding ``member_id``."""
        return self.class_rates[self._partition_index(member_id)]

    def tree_sizes(self) -> Dict[float, int]:
        """Members per tree, keyed by nominal class rate."""
        return {
            rate: part.size for rate, part in zip(self.class_rates, self.partitions)
        }
