"""Section 3: the two-partition key servers (QT, TT and PT constructions).

The key tree is split into an S-partition for fresh joiners and an
L-partition for established members, both hanging under the group DEK.
The three constructions differ in the S-partition data structure and in
how members are placed:

``qt``
    S-partition is a :class:`~repro.keytree.queuepartition.QueuePartition`
    — members hold only their individual key and the DEK; every batch with
    a departure costs one DEK encryption per queue resident (``Neq = Ns``).
``tt``
    S-partition is a second balanced key tree.
``pt``
    Both partitions are trees and the server is told each joiner's class
    (``member_class="Cs"`` or ``"Cl"``) at join time — the oracle scheme,
    no migrations, the upper bound on achievable gain.

The batch lifecycle (Section 3.2's three phases: admit joiners and roll
the DEK; process each departure inside its own partition only, which is
where the savings come from; migrate S-members whose residence reached
``Ts`` as a departure from S batched with a join to L, which alone does
not roll the DEK) is :class:`~repro.server.partitioned.PartitionedServer`'s,
under :class:`~repro.server.placement.AgePlacement` (``qt``, ``tt``) or
:class:`~repro.server.placement.ClassPlacement` (``pt``).
"""

from __future__ import annotations

from typing import Optional

from repro.crypto.material import KeyGenerator
from repro.keytree.queuepartition import QueuePartition
from repro.server.partitioned import PartitionedServer, TreePartition
from repro.server.placement import AgePlacement, ClassPlacement

MODES = ("qt", "tt", "pt")


class TwoPartitionServer(PartitionedServer):
    """The paper's two-partition key server.

    Parameters
    ----------
    mode:
        ``"qt"``, ``"tt"`` or ``"pt"`` (see module docstring).
    s_period:
        ``Ts`` in seconds — residence after which an S-member migrates to
        the L-partition at the next batch (ignored by ``pt``).
    degree:
        Key-tree degree for the tree partitions.
    """

    kind = "two-partition"

    def __init__(
        self,
        mode: str = "tt",
        s_period: float = 600.0,
        degree: int = 4,
        keygen: Optional[KeyGenerator] = None,
        group: str = "group",
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        policy = ClassPlacement() if mode == "pt" else AgePlacement(s_period)
        keygen = keygen if keygen is not None else KeyGenerator()
        if mode == "qt":
            s_partition = QueuePartition(keygen=keygen, name=f"{group}/s-queue")
        else:
            s_partition = TreePartition.build("s-partition", f"{group}/s-tree", degree, keygen)
        l_partition = TreePartition.build("l-partition", f"{group}/l-tree", degree, keygen)
        super().__init__(
            [s_partition, l_partition], policy, True, keygen=keygen, group=group
        )

    @property
    def mode(self) -> str:
        if isinstance(self.policy, ClassPlacement):
            return "pt"
        return "qt" if isinstance(self.partitions[0], QueuePartition) else "tt"

    @property
    def name(self) -> str:
        return f"{self.mode}-scheme"

    def in_s_partition(self, member_id: str) -> bool:
        """Whether an admitted member currently sits in the S-partition."""
        return member_id in self.partitions[0]

    @property
    def s_size(self) -> int:
        """Members currently in the S-partition."""
        return self.partitions[0].size

    @property
    def l_size(self) -> int:
        """Members currently in the L-partition."""
        return self.partitions[1].size
