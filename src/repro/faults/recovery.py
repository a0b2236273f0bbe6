"""The per-receiver epoch state machine and measured unicast recovery.

Rekey delivery can now fail *partially*: a retry policy abandons receivers
that a blackout or loss storm keeps unsatisfied, and a receiver that
misses a whole rekey epoch cannot decode later multicasts (the wraps chain
off key versions it never learned).  The server therefore tracks each
receiver's synchrony explicitly:

::

    IN_SYNC ──(delivery incomplete this epoch)──▶ LAGGING
    LAGGING ──(abandoned / missed a full epoch)──▶ OUT_OF_SYNC
    OUT_OF_SYNC ──(unicast catch-up delivered)──▶ IN_SYNC
    LAGGING ──(next delivery lands)──▶ IN_SYNC

``OUT_OF_SYNC`` receivers are excluded from multicast interest (no point
retransmitting wraps they cannot open) until
:meth:`~repro.server.base.GroupKeyServer.catch_up` re-issues their
entitlement over unicast — the existing resync path, now measured: every
recovery produces a :class:`RecoveryEvent` carrying the latency from
desynchronization to recovery, the epochs missed, and the unicast key
cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional

from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics


class SyncState(Enum):
    """A receiver's rekey-epoch synchrony, as the server sees it."""

    IN_SYNC = "in-sync"
    LAGGING = "lagging"
    OUT_OF_SYNC = "out-of-sync"


@dataclass
class ReceiverSync:
    """One receiver's slot in the state machine."""

    state: SyncState = SyncState.IN_SYNC
    #: last epoch the server believes this receiver fully absorbed
    synced_epoch: int = 0
    #: when the receiver fell out of sync (for recovery-latency accounting)
    desynced_at: Optional[float] = None
    #: epoch whose delivery it missed when it fell out of sync
    desynced_epoch: Optional[int] = None


@dataclass(frozen=True)
class RecoveryEvent:
    """One completed unicast catch-up, with its measured cost."""

    member_id: str
    desynced_at: float
    recovered_at: float
    epochs_missed: int
    keys_sent: int

    @property
    def latency(self) -> float:
        """Seconds between desynchronization and recovery."""
        return self.recovered_at - self.desynced_at


class SyncTracker:
    """Server-side registry of every receiver's :class:`SyncState`."""

    def __init__(self) -> None:
        self._receivers: Dict[str, ReceiverSync] = {}
        self.events: List[RecoveryEvent] = []

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    def admit(self, member_id: str, epoch: int) -> None:
        """A freshly admitted member starts in sync at its join epoch."""
        self._receivers[member_id] = ReceiverSync(
            state=SyncState.IN_SYNC, synced_epoch=epoch
        )

    def forget(self, member_id: str) -> None:
        """Drop a departed member's slot."""
        self._receivers.pop(member_id, None)

    def __contains__(self, member_id: str) -> bool:
        return member_id in self._receivers

    def state_of(self, member_id: str) -> SyncState:
        slot = self._receivers.get(member_id)
        if slot is None:
            raise KeyError(f"sync tracker knows no member {member_id!r}")
        return slot.state

    def out_of_sync(self) -> List[str]:
        """Members currently awaiting unicast recovery."""
        return [
            member_id
            for member_id, slot in self._receivers.items()
            if slot.state is SyncState.OUT_OF_SYNC
        ]

    def counts(self) -> Dict[str, int]:
        """State -> member count (observability)."""
        totals = {state.value: 0 for state in SyncState}
        for slot in self._receivers.values():
            totals[slot.state.value] += 1
        return totals

    # ------------------------------------------------------------------
    # transitions
    # ------------------------------------------------------------------

    def _slot(self, member_id: str) -> ReceiverSync:
        """``member_id``'s slot; an unknown member gets a fresh in-sync one.
        Built only on a miss: ``mark_delivered`` runs once per receiver
        per epoch."""
        slot = self._receivers.get(member_id)
        if slot is None:
            slot = self._receivers[member_id] = ReceiverSync()
        return slot

    def mark_delivered(self, member_id: str, epoch: int) -> None:
        """A rekey epoch's payload fully reached this receiver."""
        slot = self._slot(member_id)
        if slot.state is SyncState.OUT_OF_SYNC:
            # Multicast cannot repair an OUT_OF_SYNC receiver (it lacks the
            # wrapping keys); only catch_up() may transition it back.
            return
        if slot.state is not SyncState.IN_SYNC:
            obs_events.emit(
                "sync_transition",
                member_id=member_id,
                from_state=slot.state.value,
                to_state=SyncState.IN_SYNC.value,
                epoch=epoch,
            )
        slot.state = SyncState.IN_SYNC
        slot.synced_epoch = max(slot.synced_epoch, epoch)
        slot.desynced_at = None
        slot.desynced_epoch = None

    def mark_lagging(self, member_id: str, epoch: int, now: float) -> None:
        """Delivery incomplete this epoch, but the transport hasn't given
        up — the receiver may still complete from retransmissions."""
        slot = self._slot(member_id)
        if slot.state is SyncState.OUT_OF_SYNC:
            return
        if slot.state is SyncState.IN_SYNC:
            slot.state = SyncState.LAGGING
            slot.desynced_at = now
            slot.desynced_epoch = epoch
            obs_events.emit(
                "sync_transition",
                time=now,
                member_id=member_id,
                from_state=SyncState.IN_SYNC.value,
                to_state=SyncState.LAGGING.value,
                epoch=epoch,
            )

    def mark_out_of_sync(self, member_id: str, epoch: int, now: float) -> None:
        """The transport abandoned this receiver (or it missed a whole
        epoch): it can no longer follow the multicast rekey stream."""
        slot = self._slot(member_id)
        if slot.state is SyncState.OUT_OF_SYNC:
            return
        if slot.desynced_at is None:
            slot.desynced_at = now
            slot.desynced_epoch = epoch
        obs_events.emit(
            "sync_transition",
            time=now,
            member_id=member_id,
            from_state=slot.state.value,
            to_state=SyncState.OUT_OF_SYNC.value,
            epoch=epoch,
        )
        slot.state = SyncState.OUT_OF_SYNC
        obs_metrics.inc("sync.out_of_sync")

    def mark_recovered(
        self, member_id: str, epoch: int, now: float, keys_sent: int
    ) -> RecoveryEvent:
        """Unicast catch-up landed: record the event and return to sync."""
        slot = self._slot(member_id)
        desynced_at = slot.desynced_at if slot.desynced_at is not None else now
        desynced_epoch = (
            slot.desynced_epoch if slot.desynced_epoch is not None else epoch
        )
        event = RecoveryEvent(
            member_id=member_id,
            desynced_at=desynced_at,
            recovered_at=now,
            epochs_missed=max(0, epoch - desynced_epoch + 1),
            keys_sent=keys_sent,
        )
        self.events.append(event)
        if slot.state is not SyncState.IN_SYNC:
            obs_events.emit(
                "sync_transition",
                time=now,
                member_id=member_id,
                from_state=slot.state.value,
                to_state=SyncState.IN_SYNC.value,
                epoch=epoch,
            )
        obs_events.emit(
            "resync",
            time=now,
            member_id=member_id,
            keys_sent=event.keys_sent,
            epochs_missed=event.epochs_missed,
            latency=event.latency,
        )
        obs_metrics.inc("sync.recoveries")
        obs_metrics.observe("sync.recovery_keys", event.keys_sent)
        obs_metrics.observe(
            "sync.recovery_latency",
            event.latency,
            buckets=obs_metrics.LATENCY_BUCKETS_S,
        )
        slot.state = SyncState.IN_SYNC
        slot.synced_epoch = epoch
        slot.desynced_at = None
        slot.desynced_epoch = None
        return event


def latency_summary(events: List[RecoveryEvent]) -> Dict[str, float]:
    """min/mean/p50/p95/p99/max recovery-latency distribution for reporting."""
    if not events:
        return {"count": 0}
    from repro.obs.latency import exact_percentile

    latencies = sorted(e.latency for e in events)
    costs = [e.keys_sent for e in events]
    return {
        "count": len(events),
        "latency_min_s": latencies[0],
        "latency_mean_s": sum(latencies) / len(latencies),
        "latency_p50_s": exact_percentile(0, latencies, 0.50),
        "latency_p95_s": exact_percentile(0, latencies, 0.95),
        "latency_p99_s": exact_percentile(0, latencies, 0.99),
        "latency_max_s": latencies[-1],
        "keys_total": sum(costs),
        "keys_mean": sum(costs) / len(costs),
        "epochs_missed_max": max(e.epochs_missed for e in events),
    }
