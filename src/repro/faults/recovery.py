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
:meth:`~repro.server.partitioned.PartitionedServer.catch_up` re-issues their
entitlement over unicast — the existing resync path, now measured: every
recovery produces a :class:`RecoveryEvent` carrying the latency from
desynchronization to recovery, the epochs missed, and the unicast key
cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Collection, Dict, List, Mapping, Set, Tuple

from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics


class SyncState(Enum):
    """A receiver's rekey-epoch synchrony, as the server sees it."""

    IN_SYNC = "in-sync"
    LAGGING = "lagging"
    OUT_OF_SYNC = "out-of-sync"


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
    """Server-side registry of every receiver's :class:`SyncState`.

    Only receivers out of step are stored with their state: a known
    receiver is ``IN_SYNC`` unless it sits in ``_lagging`` or ``_out``,
    each mapping it to ``(desynced_at, desynced_epoch)`` — when it fell
    out of step, for recovery-latency accounting, and the epoch whose
    delivery it missed.  A delivery that leaves everyone in step therefore
    touches no per-receiver state.
    It is the one record of who is out of step (:attr:`desynced`) and of
    the run's recoveries (:attr:`events`); both survive a crash-restore.
    """

    def __init__(self) -> None:
        self._known: Set[str] = set()
        self._lagging: Dict[str, Tuple[float, int]] = {}
        self._out: Dict[str, Tuple[float, int]] = {}
        self.events: List[RecoveryEvent] = []

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    def admit(self, member_id: str, epoch: int) -> None:
        """A freshly admitted member starts in sync at its join epoch."""
        self.forget(member_id)
        self._known.add(member_id)

    def forget(self, member_id: str) -> None:
        """Drop a departed member."""
        self._known.discard(member_id)
        self._lagging.pop(member_id, None)
        self._out.pop(member_id, None)

    def __contains__(self, member_id: str) -> bool:
        return member_id in self._known

    def state_of(self, member_id: str) -> SyncState:
        if member_id in self._out:
            return SyncState.OUT_OF_SYNC
        if member_id in self._lagging:
            return SyncState.LAGGING
        if member_id in self._known:
            return SyncState.IN_SYNC
        raise KeyError(f"sync tracker knows no member {member_id!r}")

    @property
    def desynced(self) -> Mapping[str, Tuple[float, int]]:
        """Read-only ``member -> (desynced_at, desynced_epoch)`` of every
        ``OUT_OF_SYNC`` receiver, in the order they went out; a departed one
        stays until the batch that processes its departure forgets it."""
        return self._out

    def out_of_sync(self) -> List[str]:
        """Members currently awaiting unicast recovery, in the order they
        went out of sync."""
        return list(self._out)

    def counts(self) -> Dict[str, int]:
        """State -> member count (observability)."""
        lagging, out = len(self._lagging), len(self._out)
        return {
            SyncState.IN_SYNC.value: len(self._known) - lagging - out,
            SyncState.LAGGING.value: lagging,
            SyncState.OUT_OF_SYNC.value: out,
        }

    # ------------------------------------------------------------------
    # transitions (an unknown member becomes known, in sync, first)
    # ------------------------------------------------------------------

    def mark_delivered(self, member_id: str, epoch: int) -> None:
        """A rekey epoch's payload fully reached this receiver."""
        self.mark_delivered_all((member_id,), epoch)

    def mark_delivered_all(self, ids: Collection[str], epoch: int) -> None:
        """A rekey epoch's payload fully reached every receiver in ``ids``.

        Only the lagging ones move, back to ``IN_SYNC``, with their
        transition events in ``ids`` order.  Multicast cannot repair an
        ``OUT_OF_SYNC`` receiver (it lacks the wrapping keys); only
        :meth:`mark_recovered` may transition it back.
        """
        self._known.update(ids)
        lagging = self._lagging
        for member_id in filter(lagging.__contains__, ids):
            if lagging.pop(member_id, None) is not None:
                obs_events.emit(
                    "sync_transition",
                    member_id=member_id,
                    from_state=SyncState.LAGGING.value,
                    to_state=SyncState.IN_SYNC.value,
                    epoch=epoch,
                )

    def mark_lagging(self, member_id: str, epoch: int, now: float) -> None:
        """Delivery incomplete this epoch, but the transport hasn't given
        up — the receiver may still complete from retransmissions."""
        self._known.add(member_id)
        if member_id in self._out or member_id in self._lagging:
            return
        self._lagging[member_id] = (now, epoch)
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
        self._known.add(member_id)
        if member_id in self._out:
            return
        desynced = self._lagging.pop(member_id, None)
        from_state = SyncState.IN_SYNC if desynced is None else SyncState.LAGGING
        self._out[member_id] = desynced or (now, epoch)
        obs_events.emit(
            "sync_transition",
            time=now,
            member_id=member_id,
            from_state=from_state.value,
            to_state=SyncState.OUT_OF_SYNC.value,
            epoch=epoch,
        )
        obs_metrics.inc("sync.out_of_sync")

    def mark_recovered(
        self, member_id: str, epoch: int, now: float, keys_sent: int
    ) -> RecoveryEvent:
        """Unicast catch-up landed: record the event and return to sync."""
        self._known.add(member_id)
        state = self.state_of(member_id)
        desynced = self._out.pop(member_id, None) or self._lagging.pop(
            member_id, None
        )
        desynced_at, desynced_epoch = desynced or (now, epoch)
        event = RecoveryEvent(
            member_id=member_id,
            desynced_at=desynced_at,
            recovered_at=now,
            epochs_missed=max(0, epoch - desynced_epoch + 1),
            keys_sent=keys_sent,
        )
        self.events.append(event)
        if state is not SyncState.IN_SYNC:
            obs_events.emit(
                "sync_transition",
                time=now,
                member_id=member_id,
                from_state=state.value,
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
