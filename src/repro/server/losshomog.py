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

from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto.material import KeyGenerator, KeyMaterial
from repro.crypto.wrap import EncryptedKey, wrap_key
from repro.keytree.flat import FlatKeyTree, FlatRekeyer
from repro.server.base import BatchResult, GroupKeyServer, Registration


class LossHomogenizedServer(GroupKeyServer):
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

    def __init__(
        self,
        class_rates: Sequence[float] = (0.20, 0.02),
        placement: str = "loss",
        degree: int = 4,
        keygen: Optional[KeyGenerator] = None,
        group: str = "group",
    ) -> None:
        if not class_rates:
            raise ValueError("at least one loss class is required")
        if placement not in ("loss", "random"):
            raise ValueError("placement must be 'loss' or 'random'")
        super().__init__(keygen=keygen, group=group)
        self.placement = placement
        self.degree = degree
        self.name = f"loss-homogenized[{placement}]"
        self.class_rates = tuple(sorted(set(class_rates), reverse=True))
        self.trees: Dict[float, FlatKeyTree] = {}
        self.rekeyers: Dict[float, FlatRekeyer] = {}
        for rate in self.class_rates:
            tree = FlatKeyTree(
                degree=degree, keygen=self.keygen, name=f"{group}/tree-p{rate:g}"
            )
            self.trees[rate] = tree
            self.rekeyers[rate] = FlatRekeyer(tree)
        self._assignment: Dict[str, float] = {}
        self._pending_rate: Dict[str, float] = {}
        self._round_robin_index = 0
        self._dek = self.keygen.generate(f"{group}/dek")

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------

    def _note_join_attributes(self, member_id: str, attributes: Dict) -> None:
        loss_rate = attributes.pop("loss_rate", None)
        if attributes:
            raise TypeError(f"unknown join attributes: {attributes}")
        if self.placement == "random":
            rate = self.class_rates[self._round_robin_index % len(self.class_rates)]
            self._round_robin_index += 1
            self._pending_rate[member_id] = rate
            return
        if loss_rate is None:
            raise ValueError(
                "loss-homogenized placement requires loss_rate at join time"
            )
        nearest = min(self.class_rates, key=lambda rate: abs(rate - loss_rate))
        self._pending_rate[member_id] = nearest

    def _forget_join_attributes(self, member_id: str) -> None:
        self._pending_rate.pop(member_id, None)

    def tree_of(self, member_id: str) -> float:
        """The nominal class rate of the tree holding ``member_id``."""
        try:
            return self._assignment[member_id]
        except KeyError:
            raise KeyError(f"member {member_id!r} not placed") from None

    def tree_sizes(self) -> Dict[float, int]:
        """Members per tree, keyed by nominal class rate."""
        return {rate: tree.size for rate, tree in self.trees.items()}

    # ------------------------------------------------------------------
    # batch processing
    # ------------------------------------------------------------------

    def _process_batch(
        self,
        result: BatchResult,
        joins: List[Registration],
        leaves: List[str],
        now: float,
    ) -> None:
        if not joins and not leaves:
            return
        per_tree_joins: Dict[float, List[Tuple[str, KeyMaterial]]] = {}
        per_tree_leaves: Dict[float, List[str]] = {}
        for registration in joins:
            rate = self._pending_rate.pop(registration.member_id)
            self._assignment[registration.member_id] = rate
            per_tree_joins.setdefault(rate, []).append(
                (registration.member_id, registration.individual_key)
            )
        for member_id in leaves:
            rate = self._assignment.pop(member_id)
            per_tree_leaves.setdefault(rate, []).append(member_id)

        touched_rates = set(per_tree_joins) | set(per_tree_leaves)
        for rate in sorted(touched_rates, reverse=True):
            message = self.rekeyers[rate].rekey_batch(
                joins=per_tree_joins.get(rate, ()),
                departures=per_tree_leaves.get(rate, ()),
            )
            result.extend(f"tree-p{rate:g}", message.encrypted_keys)

        self._roll_group_key(result, had_departure=bool(leaves), touched=touched_rates)

    def _roll_group_key(
        self, result: BatchResult, had_departure: bool, touched: set
    ) -> None:
        """Refresh the DEK above the sub-tree roots.

        With departures, one encryption per populated tree root; with only
        joins, one encryption under the previous DEK for everyone already
        in, plus the roots of trees that admitted joiners.
        """
        previous = self._dek
        self._dek = self.keygen.rekey(previous)
        wraps: List[EncryptedKey] = []
        if had_departure:
            for rate in self.class_rates:
                tree = self.trees[rate]
                if tree.size > 0:
                    wraps.append(wrap_key(tree.root.key, self._dek))
        else:
            wraps.append(wrap_key(previous, self._dek))
            for rate in sorted(touched, reverse=True):
                tree = self.trees[rate]
                if tree.size > 0:
                    wraps.append(wrap_key(tree.root.key, self._dek))
        result.extend("group-key", wraps)

    def group_key(self) -> KeyMaterial:
        return self._dek

    def _current_keys_of(self, member_id: str) -> List[KeyMaterial]:
        tree = self.trees[self.tree_of(member_id)]
        path = tree.path_of(member_id)[1:]
        return [node.key for node in path] + [self._dek]
