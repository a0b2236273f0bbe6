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

Lifecycle per batch (Section 3.2's three phases):

1. joiners are admitted to the S-partition (``pt``: to their class's
   partition) and the DEK is rolled;
2. departures are processed inside their own partition only — an
   S-partition departure never touches L-partition keys, which is where
   the savings come from;
3. S-members whose residence reached the S-period ``Ts`` are *migrated*:
   a departure procedure in S plus a join procedure in L, batched with the
   period's other changes; a migration alone does not roll the DEK (the
   member remains authorized).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.crypto.material import KeyGenerator, KeyMaterial
from repro.crypto.wrap import EncryptedKey, wrap_key
from repro.keytree.flat import FlatKeyTree, FlatRekeyer
from repro.keytree.queuepartition import QueuePartition
from repro.members.durations import LONG_CLASS, SHORT_CLASS
from repro.server.base import BatchResult, GroupKeyServer, Registration

MODES = ("qt", "tt", "pt")


class TwoPartitionServer(GroupKeyServer):
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
        if s_period < 0:
            raise ValueError("s_period must be non-negative")
        super().__init__(keygen=keygen, group=group)
        self.mode = mode
        self.s_period = s_period
        self.degree = degree
        self.name = f"{mode}-scheme"

        if mode == "qt":
            self.s_queue: Optional[QueuePartition] = QueuePartition(
                keygen=self.keygen, name=f"{group}/s-queue"
            )
            self.s_tree: Optional[FlatKeyTree] = None
            self.s_rekeyer: Optional[FlatRekeyer] = None
        else:
            self.s_queue = None
            self.s_tree = FlatKeyTree(
                degree=degree, keygen=self.keygen, name=f"{group}/s-tree"
            )
            self.s_rekeyer = FlatRekeyer(self.s_tree)
        self.l_tree = FlatKeyTree(
            degree=degree, keygen=self.keygen, name=f"{group}/l-tree"
        )
        self.l_rekeyer = FlatRekeyer(self.l_tree)

        self._dek = self.keygen.generate(f"{group}/dek")
        self._s_entered: Dict[str, float] = {}
        self._member_class: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # placement bookkeeping
    # ------------------------------------------------------------------

    def _note_join_attributes(self, member_id: str, attributes: Dict) -> None:
        member_class = attributes.pop("member_class", None)
        if attributes:
            raise TypeError(f"unknown join attributes: {attributes}")
        if self.mode == "pt":
            if member_class not in (SHORT_CLASS, LONG_CLASS):
                raise ValueError(
                    "PT-scheme requires member_class "
                    f"({SHORT_CLASS!r} or {LONG_CLASS!r}) at join time"
                )
        if member_class is not None:
            self._member_class[member_id] = member_class

    def _forget_join_attributes(self, member_id: str) -> None:
        self._member_class.pop(member_id, None)

    def in_s_partition(self, member_id: str) -> bool:
        """Whether an admitted member currently sits in the S-partition."""
        if self.s_queue is not None:
            return member_id in self.s_queue
        assert self.s_tree is not None
        return member_id in self.s_tree

    @property
    def s_size(self) -> int:
        """Members currently in the S-partition."""
        if self.s_queue is not None:
            return self.s_queue.size
        assert self.s_tree is not None
        return self.s_tree.size

    @property
    def l_size(self) -> int:
        """Members currently in the L-partition."""
        return self.l_tree.size

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
        s_leaves = [m for m in leaves if self.in_s_partition(m)]
        l_leaves = [m for m in leaves if not self.in_s_partition(m)]
        for member_id in leaves:
            self._s_entered.pop(member_id, None)
            self._member_class.pop(member_id, None)

        migrants = self._select_migrants(now)
        result.migrated = [m for m, __ in migrants]

        s_joins: List[Registration] = []
        l_joins: List[Registration] = []
        if self.mode == "pt":
            for registration in joins:
                if self._member_class.get(registration.member_id) == LONG_CLASS:
                    l_joins.append(registration)
                else:
                    s_joins.append(registration)
        else:
            s_joins = list(joins)

        self._apply_s_partition(result, s_joins, s_leaves, migrants, now)
        self._apply_l_partition(result, l_joins, l_leaves, migrants)

        if joins or leaves:
            self._roll_group_key(result, joins=joins, had_departure=bool(leaves))

    def _select_migrants(self, now: float) -> List[Tuple[str, KeyMaterial]]:
        """S-members whose residence reached the S-period, with their keys."""
        if self.mode == "pt":
            return []
        ready = sorted(
            member_id
            for member_id, entered in self._s_entered.items()
            if now - entered >= self.s_period - 1e-9
        )
        migrants: List[Tuple[str, KeyMaterial]] = []
        for member_id in ready:
            del self._s_entered[member_id]
            key = self._members[member_id].individual_key
            migrants.append((member_id, key))
        return migrants

    def _apply_s_partition(
        self,
        result: BatchResult,
        s_joins: List[Registration],
        s_leaves: List[str],
        migrants: List[Tuple[str, KeyMaterial]],
        now: float,
    ) -> None:
        removals = s_leaves + [m for m, __ in migrants]
        if self.s_queue is not None:
            for member_id in removals:
                self.s_queue.remove_member(member_id)
            for registration in s_joins:
                self.s_queue.add_member(registration.member_id, registration.individual_key)
                self._s_entered[registration.member_id] = now
            # The queue has no auxiliary keys; its whole rekey cost is the
            # per-resident DEK distribution handled in _roll_group_key.
            return
        assert self.s_rekeyer is not None
        if not s_joins and not removals:
            return
        message = self.s_rekeyer.rekey_batch(
            joins=[(r.member_id, r.individual_key) for r in s_joins],
            departures=removals,
        )
        if self.mode != "pt":
            for registration in s_joins:
                self._s_entered[registration.member_id] = now
        result.extend("s-partition", message.encrypted_keys)

    def _apply_l_partition(
        self,
        result: BatchResult,
        l_joins: List[Registration],
        l_leaves: List[str],
        migrants: List[Tuple[str, KeyMaterial]],
    ) -> None:
        joins = [(r.member_id, r.individual_key) for r in l_joins]
        joins.extend(migrants)
        if not joins and not l_leaves:
            return
        message = self.l_rekeyer.rekey_batch(joins=joins, departures=l_leaves)
        result.extend("l-partition", message.encrypted_keys)

    def _roll_group_key(
        self, result: BatchResult, joins: List[Registration], had_departure: bool
    ) -> None:
        """Refresh and distribute the group DEK.

        On a batch with departures the previous DEK is compromised, so the
        fresh one is wrapped under clean sub-group keys only: the partition
        roots (trees) or each resident's individual key (queue — the
        ``Neq = Ns`` term).  On a join-only batch one encryption under the
        previous DEK covers every existing member (the paper's phase-1
        rule), plus the joiners' entry points.
        """
        previous = self._dek
        self._dek = self.keygen.rekey(previous)
        wraps: List[EncryptedKey] = []

        if had_departure:
            if self.s_queue is not None:
                wraps.extend(self.s_queue.wrap_for_all(self._dek))
            elif self.s_tree is not None and self.s_tree.size > 0:
                wraps.append(wrap_key(self.s_tree.root.key, self._dek))
            if self.l_tree.size > 0:
                wraps.append(wrap_key(self.l_tree.root.key, self._dek))
        else:
            wraps.append(wrap_key(previous, self._dek))
            joiner_ids = {r.member_id for r in joins}
            if self.s_queue is not None:
                for member_id in joiner_ids:
                    if member_id in self.s_queue:
                        wraps.append(self.s_queue.wrap_for(member_id, self._dek))
            elif self.s_tree is not None and self.s_tree.size > 0 and any(
                m in self.s_tree for m in joiner_ids
            ):
                wraps.append(wrap_key(self.s_tree.root.key, self._dek))
            if self.l_tree.size > 0 and any(m in self.l_tree for m in joiner_ids):
                wraps.append(wrap_key(self.l_tree.root.key, self._dek))

        result.extend("group-key", wraps)

    def group_key(self) -> KeyMaterial:
        return self._dek

    def _current_keys_of(self, member_id: str) -> List[KeyMaterial]:
        if self.s_queue is not None and member_id in self.s_queue:
            return [self._dek]  # queue members hold only individual + DEK
        if self.s_tree is not None and member_id in self.s_tree:
            path = self.s_tree.path_of(member_id)[1:]
        elif member_id in self.l_tree:
            path = self.l_tree.path_of(member_id)[1:]
        else:
            raise KeyError(f"member {member_id!r} not placed in any partition")
        return [node.key for node in path] + [self._dek]
