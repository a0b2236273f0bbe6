"""The un-optimized baseline: one balanced key tree, batched rekeying."""

from __future__ import annotations

from typing import Optional

from repro.crypto.material import KeyGenerator
from repro.keytree.flat import FlatKeyTree, FlatRekeyer
from repro.server.partitioned import PartitionedServer, TreePartition
from repro.server.placement import SinglePartitionPlacement


class OneTreeServer(PartitionedServer):
    """One LKH tree; the group key is the tree's root key.

    This is "the previous one-keytree scheme" every optimization in the
    paper is measured against: the partitioned server with a single
    partition and no DEK above it.
    """

    name = "one-keytree"
    kind = "one-keytree"

    def __init__(
        self,
        degree: int = 4,
        keygen: Optional[KeyGenerator] = None,
        group: str = "group",
        join_refresh: str = "random",
    ) -> None:
        keygen = keygen if keygen is not None else KeyGenerator()
        super().__init__(
            [TreePartition.build("tree", f"{group}/tree", degree, keygen)],
            SinglePartitionPlacement(),
            False,
            keygen=keygen,
            group=group,
            join_refresh=join_refresh,
        )

    @property
    def tree(self) -> FlatKeyTree:
        return self.partitions[0].tree

    @property
    def rekeyer(self) -> FlatRekeyer:
        return self.partitions[0].rekeyer
