"""The sharded key server: hash-placed LKH subtrees under one DEK.

:class:`ShardedOneTreeServer` is the partitioned server under
:class:`~repro.server.placement.HashPlacement`: membership is split by
``sha256(member_id) % shards`` across independent subtrees, a batch
decomposes into disjoint per-shard slices, and one O(shards) stitch wraps
a fresh group DEK under the shard roots.  ``shards`` is a *protocol*
parameter, like the tree degree: it fixes which subtree each member lives
in and therefore the structure and cost of every batch.  ``shards=1``
has no DEK above its single root and is cost- and structure-identical to
:class:`~repro.server.onetree.OneTreeServer`.

Seeding scheme: member individual keys come from the server's own
generator; each shard's node keys from a private stream derived from the
server generator and the shard id; the group DEK from a dedicated stitch
stream.  No stream is shared between two shards, so a shard's key
sequence depends only on the seed, its id and its own slice of the churn.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.crypto.material import KeyGenerator
from repro.server.partitioned import PartitionedServer, TreePartition
from repro.server.placement import HashPlacement


class ShardedOneTreeServer(PartitionedServer):
    """Hash-sharded LKH subtrees under one group DEK.

    Parameters
    ----------
    shards:
        Number of independent subtrees (``1`` reproduces the unsharded
        scheme exactly).
    degree:
        Degree of every shard subtree.
    """

    name = "sharded-keytree"
    kind = "sharded-keytree"

    def __init__(
        self,
        shards: int = 16,
        degree: int = 4,
        keygen: Optional[KeyGenerator] = None,
        group: str = "group",
        join_refresh: str = "random",
    ) -> None:
        if shards < 1:
            raise ValueError("shard count must be at least 1")
        keygen = keygen if keygen is not None else KeyGenerator()
        partitions = [
            TreePartition.build(
                label, f"{group}/tree/{label}", degree, keygen.derive_stream(label)
            )
            for label in (f"shard{shard}" for shard in range(shards))
        ]
        super().__init__(
            partitions,
            HashPlacement(),
            keygen.derive_stream("dek") if shards > 1 else None,
            keygen=keygen,
            group=group,
            join_refresh=join_refresh,
        )

    @property
    def shards(self) -> int:
        return len(self.partitions)

    def shard_sizes(self) -> Dict[int, int]:
        """Members per shard (zeros included)."""
        return {shard: part.size for shard, part in enumerate(self.partitions)}
