"""The per-receiver epoch state machine and measured unicast recovery.

Rekey delivery can now fail *partially*: a retry policy abandons receivers
that a blackout or loss storm keeps unsatisfied, and a receiver that
misses a whole rekey epoch cannot decode later multicasts (the wraps chain
off key versions it never learned).  The server therefore tracks each
receiver's synchrony explicitly, in two states:

::

    IN_SYNC ──(abandoned by the transport)──▶ OUT_OF_SYNC
    OUT_OF_SYNC ──(unicast catch-up delivered)──▶ IN_SYNC

A receiver that needed retry rounds but was satisfied stays ``IN_SYNC``:
the transport runs to completion inside one rekey, so "late" is a
latency (:mod:`repro.obs.latency`), never a state.  ``OUT_OF_SYNC``
receivers are excluded from multicast interest (no point retransmitting
wraps they cannot open) until
:meth:`~repro.server.partitioned.PartitionedServer.catch_up` re-issues their
entitlement over unicast — the existing resync path, now measured: every
recovery produces a :class:`RecoveryEvent` carrying the latency from
desynchronization to recovery, the epochs missed, and the unicast key
cost.

Each transition is booked once, here: going out of sync is one
``abandonment`` event and one ``sync.out_of_sync`` count, and a recovery is
one ``resync`` event carrying its :class:`RecoveryEvent`'s fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Mapping, Set, Tuple

from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics


class SyncState(Enum):
    """A receiver's rekey-epoch synchrony, as the server sees it."""

    IN_SYNC = "in-sync"
    OUT_OF_SYNC = "out-of-sync"


@dataclass(frozen=True)
class RecoveryEvent:
    """One completed unicast catch-up, with its measured cost.

    ``epoch`` is the epoch whose delivery the member missed: the latency
    story it closes belongs to that epoch.
    """

    member_id: str
    epoch: int
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

    A known receiver is ``IN_SYNC`` unless it sits in ``_out``, which maps
    it to ``(desynced_at, desynced_epoch)`` — when it fell out of step, for
    recovery-latency accounting, and the epoch whose delivery it missed.
    A delivery that leaves everyone in step therefore touches no
    per-receiver state.  The known set is kept by :meth:`admit` and
    :meth:`forget`, which the server calls as each batch admits and
    removes members.
    It is the one record of who is out of step (:attr:`desynced`) and of
    the run's recoveries (:attr:`events`); both survive a crash-restore.
    """

    def __init__(self) -> None:
        self._known: Set[str] = set()
        self._out: Dict[str, Tuple[float, int]] = {}
        self.events: List[RecoveryEvent] = []

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    def admit(self, member_id: str, epoch: int) -> None:
        """A freshly admitted member starts in sync at its join epoch."""
        self._out.pop(member_id, None)
        self._known.add(member_id)

    def forget(self, member_id: str) -> None:
        """Drop a departed member."""
        self._known.discard(member_id)
        self._out.pop(member_id, None)

    def __contains__(self, member_id: str) -> bool:
        return member_id in self._known

    def state_of(self, member_id: str) -> SyncState:
        if member_id in self._out:
            return SyncState.OUT_OF_SYNC
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
        out = len(self._out)
        return {
            SyncState.IN_SYNC.value: len(self._known) - out,
            SyncState.OUT_OF_SYNC.value: out,
        }

    # ------------------------------------------------------------------
    # transitions (an unknown member becomes known first)
    # ------------------------------------------------------------------

    def mark_out_of_sync(self, member_id: str, epoch: int, now: float) -> None:
        """The transport abandoned this receiver at ``epoch``: it can no
        longer follow the multicast rekey stream.  Only
        :meth:`mark_recovered` brings it back; a second call while it is
        out keeps the first interval."""
        self._known.add(member_id)
        if member_id in self._out:
            return
        self._out[member_id] = (now, epoch)
        obs_events.emit("abandonment", time=now, member_id=member_id, epoch=epoch)
        obs_metrics.inc("sync.out_of_sync")

    def mark_recovered(
        self, member_id: str, epoch: int, now: float, keys_sent: int
    ) -> RecoveryEvent:
        """Unicast catch-up landed after the server processed ``epoch``:
        record the event and return to sync.  A member that was not out of
        sync recovers with zero latency, one epoch missed."""
        self._known.add(member_id)
        desynced_at, desynced_epoch = self._out.pop(member_id, None) or (now, epoch)
        event = RecoveryEvent(
            member_id=member_id,
            epoch=desynced_epoch,
            desynced_at=desynced_at,
            recovered_at=now,
            epochs_missed=max(0, epoch - desynced_epoch + 1),
            keys_sent=keys_sent,
        )
        self.events.append(event)
        obs_events.emit(
            "resync",
            time=now,
            member_id=member_id,
            epoch=event.epoch,
            keys_sent=event.keys_sent,
            epochs_missed=event.epochs_missed,
            latency=event.latency,
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
