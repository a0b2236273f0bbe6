"""Shared key-server machinery: registration, batching, results.

Every server follows the periodic batched-rekeying lifecycle of Section
2.1.1: membership changes accumulate between rekey points, and one batch
operation at the end of the period produces a single rekey payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from repro.crypto.material import KeyGenerator, KeyMaterial
from repro.crypto.wrap import EncryptedKey, WrapBatch, WrapIndex
from repro.faults.recovery import RecoveryEvent, SyncTracker
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing


@dataclass(frozen=True)
class Registration:
    """What a joiner receives over the out-of-band registration channel.

    Slotted like :class:`KeyMaterial`: the server keeps one per admitted
    member.  It pickles and copies through its constructor.
    """

    __slots__ = ("member_id", "individual_key", "join_time")

    member_id: str
    individual_key: KeyMaterial
    join_time: float

    def __reduce__(self) -> tuple:
        return (Registration, (self.member_id, self.individual_key, self.join_time))


@dataclass
class BatchResult:
    """The outcome of one periodic batch rekeying.

    ``cost`` (the number of encrypted keys) is the paper's bandwidth
    metric; ``breakdown`` attributes it to the server's internal parts
    (e.g. ``{"s-partition": 120, "l-partition": 310, "group-key": 2}``).
    """

    epoch: int
    time: float
    encrypted_keys: WrapBatch = field(default_factory=WrapBatch)
    #: ELK/LKH+ one-way advances members apply locally (no wire bytes).
    advanced: List[tuple] = field(default_factory=list)
    joined: List[str] = field(default_factory=list)
    departed: List[str] = field(default_factory=list)
    migrated: List[str] = field(default_factory=list)
    breakdown: Dict[str, int] = field(default_factory=dict)
    #: Lazily built positional index over ``encrypted_keys`` (derived state).
    _index: Optional[WrapIndex] = field(default=None, repr=False, compare=False)

    @property
    def cost(self) -> int:
        """Total encrypted keys in the batch payload."""
        return len(self.encrypted_keys)

    def extend(self, label: str, keys: Sequence[EncryptedKey]) -> None:
        """Append a component's keys (a batch column by column) and record
        its share in the breakdown.

        The first batch into an empty payload is adopted, not copied: the
        payload *is* that batch from then on, and later components append
        to it.  Callers hand over a batch nothing else keeps (a
        partition's fresh rekey message, a local DEK batch).
        """
        if isinstance(keys, WrapBatch) and not self.encrypted_keys:
            self.encrypted_keys = keys
        else:
            self.encrypted_keys.extend(keys)
        self.breakdown[label] = self.breakdown.get(label, 0) + len(keys)

    def index(self) -> WrapIndex:
        """Shared ``wrapping_id -> rows`` index of the payload.

        Built on first use (and rebuilt if more keys were appended since),
        then reused by every receiver this batch is delivered to.
        """
        index = self._index
        if index is None or index.size != len(self.encrypted_keys):
            index = WrapIndex(self.encrypted_keys)
            self._index = index
        return index


class GroupKeyServer:
    """Base class: pending-batch bookkeeping shared by all schemes.

    Subclasses implement :meth:`_process_batch`; this class handles
    registration keys, join/leave queuing and the join-then-leave-within-
    one-period corner (the member never receives any group key and simply
    vanishes from the pending set).
    """

    name = "base"
    #: Keyword attributes ``join()`` takes besides the member and the time.
    join_attributes: tuple = ()

    def __init__(self, keygen: Optional[KeyGenerator] = None, group: str = "group") -> None:
        self.keygen = keygen if keygen is not None else KeyGenerator()
        self.group = group
        self._next_epoch = 1
        self._members: Dict[str, Registration] = {}
        self._pending_joins: Dict[str, Registration] = {}
        self._pending_leaves: Dict[str, float] = {}
        self._sync: Optional[SyncTracker] = None

    @property
    def sync(self) -> SyncTracker:
        """Per-receiver epoch state machine (built on first use).

        Steady-state cost paths never touch it; the simulator and the
        chaos harness drive its transitions as deliveries succeed, lag,
        or get abandoned (see :mod:`repro.faults.recovery`).
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
        # or recorded, so a rejected join leaves the server as it was.
        self._note_join_attributes(member_id, attributes)
        key = self.keygen.generate(f"member:{member_id}")
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
            self._forget_join_attributes(member_id)
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
        if leaves:
            obs_metrics.inc("server.departures", len(leaves))
        if result.encrypted_keys:
            obs_metrics.inc("server.encrypted_keys", len(result.encrypted_keys))
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

    # ------------------------------------------------------------------
    # subclass hooks
    # ------------------------------------------------------------------

    def _process_batch(
        self,
        result: BatchResult,
        joins: List[Registration],
        leaves: List[str],
        now: float,
    ) -> None:
        """Apply the batch to the scheme's key structures."""
        raise NotImplementedError

    def _note_join_attributes(self, member_id: str, attributes: Dict) -> None:
        """Stash placement attributes for a pending joiner (optional)."""
        if attributes:
            raise TypeError(
                f"{type(self).__name__} accepts no join attributes, got {attributes}"
            )

    def _forget_join_attributes(self, member_id: str) -> None:
        """Drop stashed attributes when a pending joiner cancels."""

    def group_key(self) -> KeyMaterial:
        """The current group data-encryption key."""
        raise NotImplementedError

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
        registration = self._members.get(member_id)
        if registration is None:
            raise KeyError(f"member {member_id!r} unknown to {self.group!r}")
        from repro.crypto.wrap import wrap_key

        return [
            wrap_key(registration.individual_key, key)
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
        group DEK included (subclass hook for :meth:`resync`)."""
        raise NotImplementedError

    @property
    def group_key_id(self) -> str:
        """Key id of the group DEK (what the data plane encrypts under)."""
        return self.group_key().key_id
