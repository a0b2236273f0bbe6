"""The one key server: partitions under a group key, placed by a policy.

Every scheme in the paper is "sub-trees under the group DEK" and differs
only in who is placed where.  :class:`PartitionedServer` is that
construction, once:

* an ordered list of **partitions** — a :class:`TreePartition` (a
  :class:`~repro.keytree.flat.FlatKeyTree` and its rekeyer) or the tree-less
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
payload byte-identical to the server classes this one replaced.

A server built without a DEK has one partition whose root key *is* the
group key: the un-optimised one-keytree scheme.  Every key — individual,
node and DEK — comes off the server's one generator.  The three scheme
classes (``onetree``, ``twopartition``, ``losshomog``) are thin factories
over this one: a constructor that picks the partitions and the policy,
and the read-only names their callers use.  The membership lifecycle
(``join`` / ``leave`` / ``rekey``, unicast ``resync`` / ``catch_up``) is
this class's own; there is no other server class.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.crypto.material import KeyGenerator, KeyMaterial
from repro.crypto.wrap import EncryptedKey, WrapBatch, wrap_key
from repro.faults.recovery import RecoveryEvent, SyncTracker
from repro.keytree.flat import FlatKeyTree, FlatRekeyer
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.server.base import BatchResult, Registration
from repro.server.placement import PlacementPolicy

#: A member's individual key id, in a tree leaf and in the queue alike.
INDIVIDUAL = "member:"


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

    def dump(self) -> Dict:
        """The tree (attachment heaps included) and the rekeyer's message
        epoch; the key stream is the server's, snapshotted once."""
        return {
            "label": self.label,
            "tree": self.tree.to_dict(),
            "epoch": self.rekeyer._next_epoch,
        }

    @classmethod
    def load(cls, data: Dict, shared: KeyGenerator) -> "TreePartition":
        """Rebuild from :meth:`dump` output, drawing from ``shared``."""
        tree = FlatKeyTree.from_dict(data["tree"], keygen=shared)
        partition = cls(data["label"], tree)
        partition.rekeyer._next_epoch = int(data["epoch"])
        return partition


class PartitionedServer:
    """Partitions under one group DEK, members placed by ``policy``.

    Every scheme follows the periodic batched-rekeying lifecycle: ``join``
    and ``leave`` queue membership changes, and ``rekey`` processes them
    as one batch whose :class:`~repro.server.base.BatchResult` is handed
    to a transport (or counted — the paper's metric).  A member that joins
    and leaves within one period never receives any group key and simply
    vanishes from the pending set.

    Parameters
    ----------
    partitions:
        The sub-groups, in the order their keys are drawn and their wraps
        appear in a payload.
    policy:
        Who goes where (:mod:`repro.server.placement`).
    dek:
        Whether a group DEK sits above the partitions, drawn from
        ``keygen``.  ``False``: no DEK above the single partition, whose
        root key serves as the group key.
    keygen:
        The one key stream: individual keys, node keys and the DEK.
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
        dek: bool,
        keygen: KeyGenerator,
        group: str = "group",
        join_refresh: str = "random",
    ) -> None:
        if join_refresh not in ("random", "owf"):
            raise ValueError("join_refresh must be 'random' or 'owf'")
        if not dek and len(partitions) != 1:
            raise ValueError("a server without a DEK has exactly one partition")
        if not policy.accepts(len(partitions)):
            raise ValueError(
                f"{policy.name} placement does not fit {len(partitions)} partitions"
            )
        self.keygen = keygen
        self.group = group
        self.partitions = list(partitions)
        self.policy = policy
        #: Keyword attributes ``join()`` takes besides the member and the time.
        self.join_attributes = policy.attributes
        self.join_refresh = join_refresh
        self._next_epoch = 1
        self._members: Dict[str, Registration] = {}
        self._pending_joins: Dict[str, Registration] = {}
        self._pending_leaves: Dict[str, float] = {}
        self._sync: Optional[SyncTracker] = None
        self._dek: Optional[KeyMaterial] = None
        if dek:
            self._dek = keygen.generate(f"{group}/dek")

    @property
    def sync(self) -> SyncTracker:
        """Per-receiver epoch state machine (built on first use).

        Steady-state cost paths never touch it; the simulator and the
        chaos harness mark the receivers a transport abandons, and
        :meth:`catch_up` brings them back (see :mod:`repro.faults.recovery`).
        """
        if self._sync is None:
            self._sync = SyncTracker()
        return self._sync

    @property
    def current_epoch(self) -> int:
        """The last processed batch epoch (0 before any rekeying)."""
        return self._next_epoch - 1

    # ------------------------------------------------------------------
    # membership interface
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Members already admitted (pending joiners excluded)."""
        return len(self._members)

    def __contains__(self, member_id: str) -> bool:
        return member_id in self._members

    def members(self) -> List[str]:
        """Admitted member ids (unordered)."""
        return list(self._members)

    def registration(self, member_id: str) -> Registration:
        """What admitted member ``member_id`` received at join; raises
        ``KeyError`` for non-members (pending joiners included)."""
        registration = self._members.get(member_id)
        if registration is None:
            raise KeyError(f"member {member_id!r} unknown to {self.group!r}")
        return registration

    def join(self, member_id: str, at_time: float = 0.0, **attributes) -> Registration:
        """Register a joiner; admitted at the next :meth:`rekey`.

        Returns the :class:`Registration` carrying the individual key the
        member receives over the simulated secure unicast channel.
        Placement attributes (``member_class`` for PT, ``loss_rate`` for
        loss-homogenized servers; :attr:`join_attributes` names the ones
        this server takes) pass through ``**attributes``.
        """
        if member_id in self._members or member_id in self._pending_joins:
            raise ValueError(f"member {member_id!r} already known to {self.group!r}")
        # Attributes are outside input: checked before anything is drawn
        # or recorded, so a rejected join leaves the server as it was.  A
        # name admit() does not take is Python's own TypeError.
        self.policy.admit(member_id, **attributes)
        key = self.keygen.generate(INDIVIDUAL + member_id)
        registration = Registration(member_id, key, at_time)
        self._pending_joins[member_id] = registration
        obs_events.emit("join", time=at_time, member_id=member_id)
        return registration

    def leave(self, member_id: str, at_time: float = 0.0) -> None:
        """Queue a departure for the next :meth:`rekey`.

        A member that joined and left within the same period is silently
        dropped from the pending joins — it never held any group key.
        """
        if member_id in self._pending_joins:
            del self._pending_joins[member_id]
            self.policy.cancel(member_id)
            obs_events.emit("departure", time=at_time, member_id=member_id)
            return
        if member_id not in self._members:
            raise KeyError(f"member {member_id!r} unknown to {self.group!r}")
        if member_id in self._pending_leaves:
            raise ValueError(f"member {member_id!r} already departing")
        self._pending_leaves[member_id] = at_time
        obs_events.emit("departure", time=at_time, member_id=member_id)

    def rekey(self, now: float = 0.0) -> BatchResult:
        """Process all pending changes as one batch; returns the payload."""
        result = BatchResult(epoch=self._next_epoch, time=now)
        self._next_epoch += 1
        joins = list(self._pending_joins.values())
        leaves = list(self._pending_leaves)
        self._pending_joins.clear()
        self._pending_leaves.clear()
        for registration in joins:
            self._members[registration.member_id] = registration
        for member_id in leaves:
            del self._members[member_id]
        result.joined = [r.member_id for r in joins]
        result.departed = leaves
        if self._sync is not None:
            for registration in joins:
                self._sync.admit(registration.member_id, self._next_epoch - 1)
            for member_id in leaves:
                self._sync.forget(member_id)
        registry = obs_metrics.active_registry()
        with obs_tracing.span("rekey", epoch=result.epoch) as rekey_span:
            started = perf_counter() if registry is not None else 0.0
            self._process_batch(result, joins, leaves, now)
            if registry is not None:
                registry.observe(
                    "server.rekey.seconds",
                    perf_counter() - started,
                    buckets=obs_metrics.LATENCY_BUCKETS_S,
                )
            rekey_span.set("cost", result.cost)
        obs_metrics.inc("server.rekeys")
        if joins:
            obs_metrics.inc("server.joins", len(joins))
        obs_metrics.observe("server.batch_cost", result.cost)
        obs_metrics.observe("epoch.group_size", self.size)
        obs_metrics.observe("epoch.departures", len(leaves))
        obs_events.emit(
            "epoch",
            time=now,
            epoch=result.epoch,
            joins=len(joins),
            departures=len(leaves),
            cost=result.cost,
            group_size=self.size,
        )
        return result

    def audiences(self, result: BatchResult) -> Dict[int, Set[str]]:
        """``row -> member ids`` for the batch just closed: whom the key
        wrapping each row reaches (the sparseness property, Section 2.2),
        each member named once per key it learns.

        A tree node's key names the members under it, less those its
        payload reaches through their own individual key (a
        one-way-function joiner's bootstrap); an individual key names its
        member.  In a join-only batch the previous DEK names every member
        admitted before the batch (the paper's phase-1 rule) and a root's
        DEK row only that partition's joiners.  Out-of-sync receivers are
        left out, a row naming nobody has no entry, and rows under one key
        share one set.  Refused (``ValueError``) once a later batch has
        closed: the trees have changed since.
        """
        if result.epoch != self.current_epoch:
            raise ValueError(
                f"audiences of epoch {result.epoch} asked of a server at epoch "
                f"{self.current_epoch}: its trees have changed since"
            )
        batch, joined, skip = result.encrypted_keys, result.joined, len(INDIVIDUAL)
        trees = [(p.tree, {}) for p in self.partitions if isinstance(p, TreePartition)]
        dek_id = None if self._dek is None else self._dek.key_id
        stitched = {} if dek_id is None or result.departed else {
            tree.root.node_id: tree for tree, __ in trees
        }
        own: Dict[str, Set[str]] = {}
        for wrapping_id, payload_id in zip(batch.wrapping_ids, batch.payload_ids):
            if wrapping_id.startswith(INDIVIDUAL):
                own.setdefault(payload_id, set()).add(wrapping_id[skip:])
        desynced = self._sync.desynced if self._sync is not None else {}
        named: Dict[str, Set[str]] = {}
        audiences: Dict[int, Set[str]] = {}
        for row, wrapping_id in enumerate(batch.wrapping_ids):
            audience = named.get(wrapping_id)
            if audience is None:  # once per key: a node key wraps one row
                if wrapping_id.startswith(INDIVIDUAL):
                    audience = {wrapping_id[skip:]}
                elif wrapping_id == dek_id:
                    audience = set(self._members).difference(joined)
                elif wrapping_id in stitched:
                    audience = {m for m in joined if m in stitched[wrapping_id]}
                else:
                    for tree, built in trees:
                        under = tree.members_under(wrapping_id, built)
                        if under is not None:
                            break
                    audience = set(under)
                    audience.difference_update(own.get(batch.payload_ids[row], ()))
                audience.difference_update(desynced)
                named[wrapping_id] = audience
            if audience:
                audiences[row] = audience
        return audiences

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
        """Apply the batch to the partitions, then roll the DEK."""
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
        dek = self._dek = self.keygen.rekey(previous)
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
        """The current group data-encryption key."""
        if self._dek is None:
            return self.partitions[0].tree.root.key
        return self._dek

    @property
    def group_key_id(self) -> str:
        """Key id of the group DEK (what the data plane encrypts under)."""
        return self.group_key().key_id

    # ------------------------------------------------------------------
    # unicast recovery
    # ------------------------------------------------------------------

    def resync(self, member_id: str) -> List[EncryptedKey]:
        """Unicast recovery for a member that fell behind.

        Rekey transport has a soft real-time bound (Section 2.2): a member
        partitioned away long enough to miss whole rekey intervals cannot
        catch up from multicast alone, because the wraps it missed chain
        off key versions it never learned.  The recovery path re-issues
        every key the member is currently entitled to, wrapped under its
        individual key (which never rotates), so one unicast delivery
        restores it.

        Returns the encrypted keys to send; raises ``KeyError`` for
        non-members (pending joiners included — they have nothing to
        recover until admitted).
        """
        individual_key = self.registration(member_id).individual_key
        return [
            wrap_key(individual_key, key)
            for key in self._current_keys_of(member_id)
        ]

    def catch_up(self, member_id: str, now: float = 0.0):
        """Unicast catch-up for an ``OUT_OF_SYNC`` receiver, measured.

        Runs the :meth:`resync` path, transitions the member back to
        ``IN_SYNC`` in the :attr:`sync` tracker, and returns
        ``(payload, event)`` where the
        :class:`~repro.faults.recovery.RecoveryEvent` carries the recovery
        latency (time since desynchronization), epochs missed, and the
        unicast key cost.  Raises ``KeyError`` for non-members, exactly
        like :meth:`resync`.
        """
        payload = self.resync(member_id)
        event: RecoveryEvent = self.sync.mark_recovered(
            member_id, epoch=self.current_epoch, now=now, keys_sent=len(payload)
        )
        obs_metrics.inc("server.catchups")
        obs_metrics.inc("server.catchup_keys", len(payload))
        return payload, event

    def _current_keys_of(self, member_id: str) -> List[KeyMaterial]:
        """Every key ``member_id`` is currently entitled to hold, the
        group DEK included."""
        keys = self.partitions[self._partition_index(member_id)].path_keys(member_id)
        return keys if self._dek is None else keys + [self._dek]
