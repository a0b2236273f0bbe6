"""The un-optimized baseline: one balanced key tree, batched rekeying."""

from __future__ import annotations

from typing import List, Optional

from repro.crypto.material import KeyGenerator, KeyMaterial
from repro.keytree.flat import FlatKeyTree, FlatRekeyer
from repro.server.base import BatchResult, GroupKeyServer, Registration


class OneTreeServer(GroupKeyServer):
    """One LKH tree; the group key is the tree's root key.

    This is "the previous one-keytree scheme" every optimization in the
    paper is measured against.
    """

    name = "one-keytree"

    def __init__(
        self,
        degree: int = 4,
        keygen: Optional[KeyGenerator] = None,
        group: str = "group",
        join_refresh: str = "random",
    ) -> None:
        if join_refresh not in ("random", "owf"):
            raise ValueError("join_refresh must be 'random' or 'owf'")
        super().__init__(keygen=keygen, group=group)
        self.join_refresh = join_refresh
        self.tree = FlatKeyTree(
            degree=degree, keygen=self.keygen, name=f"{group}/tree"
        )
        self.rekeyer = FlatRekeyer(self.tree)

    def _process_batch(
        self,
        result: BatchResult,
        joins: List[Registration],
        leaves: List[str],
        now: float,
    ) -> None:
        if not joins and not leaves:
            return
        message = self.rekeyer.rekey_batch(
            joins=[(r.member_id, r.individual_key) for r in joins],
            departures=leaves,
            join_refresh=self.join_refresh,
        )
        result.extend("tree", message.encrypted_keys)
        result.advanced.extend(message.advanced)

    def group_key(self) -> KeyMaterial:
        return self.tree.root.key

    def _current_keys_of(self, member_id: str) -> List[KeyMaterial]:
        # Path keys above the member's own leaf (root/DEK included).
        return [node.key for node in self.tree.path_of(member_id)[1:]]
