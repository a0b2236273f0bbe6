"""The one key server: partitions under a group key, placed by a policy.

Every scheme in the paper is "sub-trees under the group DEK" and differs
only in who is placed where.  :class:`PartitionedServer` is that
construction, once:

* an ordered list of **partitions** — a :class:`TreePartition` (a
  :class:`~repro.keytree.flat.FlatKeyTree` and its rekeyer, on the server's
  key stream or on a private derived one) or the tree-less
  :class:`~repro.keytree.queuepartition.QueuePartition` — each answering
  the same three questions: *apply* my slice of the batch, *wrap a DEK* for
  my residents or my joiners, *path keys* of a member;
* a :class:`~repro.server.placement.PlacementPolicy`, the only thing that
  differs between schemes (see the table in :mod:`repro.server.placement`);
* one group-key stitch, :meth:`PartitionedServer._roll_group_key`.

Per batch (Section 3.2's phases, for any number of partitions): departures
go to the partition holding the member; the policy names the members to
migrate (a departure from one partition batched with a join to another —
the member stays authorised, so a migration alone does not roll the DEK);
joiners go where the policy places them; each touched partition rekeys its
slice, in list order; then the DEK is rolled iff the batch had a join or a
departure.  Key draws happen in that same order, which is what keeps every
payload byte-identical to the four server classes this one replaced.

A server built without a DEK stream has one partition whose root key *is*
the group key: the un-optimised one-keytree scheme.  The four scheme
classes (``onetree``, ``sharded``, ``twopartition``, ``losshomog``) are
thin factories over this one: a constructor that picks the partitions and
the policy, and the read-only names their callers use.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto.material import KeyGenerator, KeyMaterial
from repro.crypto.wrap import WrapBatch
from repro.keytree.flat import FlatKeyTree, FlatRekeyer
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.server.base import BatchResult, GroupKeyServer, Registration
from repro.server.placement import PlacementPolicy


class TreePartition:
    """A key tree and its rekeyer: one sub-group under its root key."""

    def __init__(self, label: str, tree: FlatKeyTree) -> None:
        #: What this partition is called in a batch ``breakdown``.
        self.label = label
        self.tree = tree
        self.rekeyer = FlatRekeyer(tree)

    @classmethod
    def build(cls, label: str, name: str, degree: int, keygen: KeyGenerator):
        """An empty partition whose tree ``name`` draws keys from ``keygen``."""
        return cls(label, FlatKeyTree(degree=degree, keygen=keygen, name=name))

    @property
    def size(self) -> int:
        return self.tree.size

    def __contains__(self, member_id: str) -> bool:
        return member_id in self.tree

    def members(self) -> List[str]:
        return self.tree.members()

    def apply(
        self,
        joins: Sequence[Tuple[str, KeyMaterial]],
        departures: Sequence[str],
        join_refresh: str = "random",
    ):
        """Rekey this partition's slice of a batch; returns the message."""
        return self.rekeyer.rekey_batch(
            joins=joins, departures=departures, join_refresh=join_refresh
        )

    def wrap_dek(
        self, dek: KeyMaterial, joiners: Optional[Sequence[str]] = None
    ) -> WrapBatch:
        """One wrap under the root reaches every resident, joiners included."""
        wraps = WrapBatch()
        if self.tree.size > 0:
            root = self.tree.root.key
            wraps.add(*root.handle, *dek.handle, root.secret, dek.secret)
            obs_metrics.inc("crypto.wraps")
        return wraps

    def path_keys(self, member_id: str) -> List[KeyMaterial]:
        """Keys above the member's own leaf, root included."""
        return [node.key for node in self.tree.path_of(member_id)[1:]]

    def dump(self, shared: KeyGenerator) -> Dict:
        """The tree (attachment heaps included), the rekeyer's message
        epoch and — when the tree draws from a private stream rather than
        ``shared`` — that stream's state: a restored partition must draw
        the key material the live one would have."""
        data = {
            "label": self.label,
            "tree": self.tree.to_dict(),
            "epoch": self.rekeyer._next_epoch,
        }
        if self.tree.keygen is not shared:
            data["stream"] = self.tree.keygen.state()
        return data

    @classmethod
    def load(cls, data: Dict, shared: KeyGenerator) -> "TreePartition":
        """Rebuild from :meth:`dump` output."""
        stream = data.get("stream")
        keygen = KeyGenerator.from_state(stream) if stream else shared
        partition = cls(data["label"], FlatKeyTree.from_dict(data["tree"], keygen=keygen))
        if stream:
            # Tree construction consumed a draw that must not count.  (The
            # shared stream's counter is pinned by restore_server, last.)
            keygen._counter = int(stream["counter"])
        partition.rekeyer._next_epoch = int(data["epoch"])
        return partition


class PartitionedServer(GroupKeyServer):
    """Partitions under one group DEK, members placed by ``policy``.

    Parameters
    ----------
    partitions:
        The sub-groups, in the order their keys are drawn and their wraps
        appear in a payload.
    policy:
        Who goes where (:mod:`repro.server.placement`).
    dek_stream:
        The key stream the group DEK is drawn from (the server's own, or
        a dedicated one so DEK material never depends on how many draws
        the partitions made).  ``None``: no DEK above the single
        partition, whose root key serves as the group key.
    join_refresh:
        ``"random"`` or ``"owf"``, handed to every tree's rekeyer.
    """

    name = "partitioned"
    #: Snapshot tag: the class ``restore_server`` rebuilds.
    kind = "partitioned"

    def __init__(
        self,
        partitions: Sequence,
        policy: PlacementPolicy,
        dek_stream: Optional[KeyGenerator],
        keygen: KeyGenerator,
        group: str = "group",
        join_refresh: str = "random",
    ) -> None:
        if join_refresh not in ("random", "owf"):
            raise ValueError("join_refresh must be 'random' or 'owf'")
        if dek_stream is None and len(partitions) != 1:
            raise ValueError("a server without a DEK has exactly one partition")
        if not policy.accepts(len(partitions)):
            raise ValueError(
                f"{policy.name} placement does not fit {len(partitions)} partitions"
            )
        super().__init__(keygen=keygen, group=group)
        self.partitions = list(partitions)
        self.policy = policy
        self.join_attributes = policy.attributes
        self.join_refresh = join_refresh
        self._dek_stream = dek_stream
        self._dek: Optional[KeyMaterial] = None
        if dek_stream is not None:
            self._dek = dek_stream.generate(f"{group}/dek")

    def _note_join_attributes(self, member_id: str, attributes: Dict) -> None:
        # A name admit() does not take is Python's own TypeError.
        self.policy.admit(member_id, **attributes)

    def _forget_join_attributes(self, member_id: str) -> None:
        self.policy.cancel(member_id)

    def _partition_index(self, member_id: str) -> int:
        for index, partition in enumerate(self.partitions):
            if member_id in partition:
                return index
        raise KeyError(f"member {member_id!r} not placed in any partition")

    def shard_label(self, member_id: str) -> str:
        """The ``breakdown`` label of the partition holding a member —
        the ``shard`` label of its ``rekey.latency`` series."""
        return self.partitions[self._partition_index(member_id)].label

    def _process_batch(
        self,
        result: BatchResult,
        joins: List[Registration],
        leaves: List[str],
        now: float,
    ) -> None:
        policy = self.policy
        slices: List[Tuple[list, list]] = [([], []) for _ in self.partitions]
        for member_id in leaves:
            slices[self._partition_index(member_id)][1].append(member_id)
            policy.forget(member_id)
        # Migrants are picked before joiners are placed: nobody moves in
        # the batch that admits it.
        moves = policy.migrations(now)
        result.migrated = [member_id for member_id, __, __ in moves]
        for registration in joins:
            member_id, key = registration.member_id, registration.individual_key
            slices[policy.place(member_id, now, len(slices))][0].append((member_id, key))
        # Joiners head each slice; the migrants appended next are not new
        # to the group and get no DEK wrap of their own.
        admitted = [len(entering) for entering, __ in slices]
        for member_id, source, target in moves:
            slices[source][1].append(member_id)
            slices[target][0].append((member_id, self._members[member_id].individual_key))

        observing = (
            obs_metrics.active_registry() is not None
            or obs_tracing.active_tracer() is not None
        )
        for partition, (entering, leaving) in zip(self.partitions, slices):
            if not entering and not leaving:
                continue
            started = perf_counter() if observing else 0.0
            message = partition.apply(entering, leaving, self.join_refresh)
            keys = 0
            if message is not None:
                keys = len(message.encrypted_keys)
                result.extend(partition.label, message.encrypted_keys)
                result.advanced.extend(message.advanced)
            if observing:
                label, wall_s = partition.label, perf_counter() - started
                obs_tracing.add_span("shard", wall_s=wall_s, shard=label, keys=keys)
                obs_metrics.observe("shard.batch_keys", keys, shard=label)
                obs_metrics.observe(
                    "shard.batch_seconds",
                    wall_s,
                    buckets=obs_metrics.LATENCY_BUCKETS_S,
                    shard=label,
                )
        if self._dek is not None and (joins or leaves):
            self._roll_group_key(result, slices, admitted, had_departure=bool(leaves))

    def _roll_group_key(
        self, result: BatchResult, slices: List, admitted: List[int], had_departure: bool
    ) -> None:
        """Refresh and distribute the group DEK — the one stitch.

        With a departure the previous DEK is compromised, so the fresh one
        is wrapped under clean sub-group keys only: every populated
        partition, in list order (a tree's root; each queue resident's
        individual key — QT's ``Neq = Ns`` term).  On a join-only batch
        one encryption under the previous DEK covers every existing member
        (the paper's phase-1 rule), plus the partitions that admitted a
        joiner: the first ``admitted[i]`` entries of slice ``i``.
        """
        previous = self._dek
        dek = self._dek = self._dek_stream.rekey(previous)
        wraps = WrapBatch()
        if had_departure:
            for partition in self.partitions:
                wraps.extend(partition.wrap_dek(dek))
        else:
            wraps.add(*previous.handle, *dek.handle, previous.secret, dek.secret)
            obs_metrics.inc("crypto.wraps")
            for partition, (entering, __), count in zip(self.partitions, slices, admitted):
                if count:
                    joiners = [member_id for member_id, __ in entering[:count]]
                    wraps.extend(partition.wrap_dek(dek, joiners))
        result.extend("group-key", wraps)

    def group_key(self) -> KeyMaterial:
        if self._dek is None:
            return self.partitions[0].tree.root.key
        return self._dek

    def _current_keys_of(self, member_id: str) -> List[KeyMaterial]:
        keys = self.partitions[self._partition_index(member_id)].path_keys(member_id)
        return keys if self._dek is None else keys + [self._dek]
