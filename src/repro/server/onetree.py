"""The un-optimized baseline: one balanced key tree, batched rekeying."""

from __future__ import annotations

from typing import List, Optional

from repro.crypto.material import KeyGenerator, KeyMaterial
from repro.keytree.serialize import (
    TREE_KERNELS,
    make_kernel_rekeyer,
    make_kernel_tree,
)
from repro.server.base import BatchResult, GroupKeyServer, Registration


class OneTreeServer(GroupKeyServer):
    """One LKH tree; the group key is the tree's root key.

    This is "the previous one-keytree scheme" every optimization in the
    paper is measured against.  ``tree_kernel`` selects the in-memory
    tree representation: ``"object"`` (node objects, the reference) or
    ``"flat"`` (index arrays; byte-identical payloads, far fewer
    collector-tracked objects, so shorter slow epochs and set-up at
    large N — "Execution options" in ``docs/performance.md`` has the
    measurement).  It is the only execution setting this server has.
    """

    name = "one-keytree"

    def __init__(
        self,
        degree: int = 4,
        keygen: Optional[KeyGenerator] = None,
        group: str = "group",
        join_refresh: str = "random",
        tree_kernel: str = "object",
    ) -> None:
        if join_refresh not in ("random", "owf"):
            raise ValueError("join_refresh must be 'random' or 'owf'")
        if tree_kernel not in TREE_KERNELS:
            raise ValueError(f"tree_kernel must be one of {TREE_KERNELS}")
        super().__init__(keygen=keygen, group=group)
        self.join_refresh = join_refresh
        self.tree_kernel = tree_kernel
        self.tree = make_kernel_tree(
            tree_kernel, degree=degree, keygen=self.keygen, name=f"{group}/tree"
        )
        self.rekeyer = make_kernel_rekeyer(self.tree)

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
