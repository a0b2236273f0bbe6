"""Member-level rekey latency: time-to-new-DEK accounting.

The paper's figures price rekeying in *bandwidth* (encrypted keys per
batch); a production operator prices it in *latency* — how long after a
batch closes does each member hold the new group DEK?  This module owns
that accounting.  A :class:`LatencyTracker` lives on the simulation and
records, in simulated seconds, one closed interval per member per epoch:

* **delivered** — the transport satisfied the member in retry round 0;
  latency is 0 (the DEK is usable the instant the batch ships).
* **late** — the member needed retry rounds (``TransportResult.late``);
  latency is the virtual elapsed time the transport accumulated before
  the member's wanted set emptied (see ``TransportResult.completed``):
  the retry policy's backoff, so 0.0 for a transport run without one.
* **resync** — retries exhausted, the member was abandoned and later
  recovered via unicast catch-up; latency runs from batch close to the
  catch-up delivery.  The sync tracker measures it: this tracker books
  the :class:`~repro.faults.recovery.RecoveryEvent` that
  ``catch_up`` returns (:meth:`LatencyTracker.observe_recovery`), and the
  tracker's ``resync`` event is its one event.
* **abandoned** — the member departed (or the run ended) while still out
  of sync; the interval closes with the time it sat unrecovered and is
  excluded from adoption percentiles.

Every ``abandonment`` therefore gets exactly one terminal event —
``resync`` or ``abandoned_unrecovered`` — so intervals can never leak
open.  The tracker books closed intervals only.  An open one is the
member's entry in the server's out-of-sync ledger,
:attr:`SyncTracker.desynced <repro.faults.recovery.SyncTracker.desynced>`,
and the simulation hands that entry to an abandoned close.

The tracker keeps exact samples per epoch for exact p50/p95/p99
(``summary()``, ``epoch_percentiles()``), and, while a
:class:`~repro.obs.metrics.MetricsRegistry` is active, each interval is
also observed into the ``rekey.latency`` histogram over
:data:`LATENCY_LOG_BUCKETS_S`, labeled ``scheme``/``shard``/``sync_state``
(``shard``: the label of the partition holding the member,
``server.shard_label``).  An epoch's deliveries reach the histogram as
one batch per ``(shard, sync_state)`` series; a resync or an abandoned
close is a batch of one.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Collection, Dict, Iterable, List, Optional, Tuple

from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import LATENCY_LOG_BUCKETS_S

if TYPE_CHECKING:
    from repro.faults.recovery import RecoveryEvent

#: Histogram metric name for member time-to-new-DEK.
LATENCY_METRIC = "rekey.latency"

#: Quantiles the summaries report.
SUMMARY_QUANTILES = (0.50, 0.95, 0.99)


def exact_percentile(
    zeros: int, nonzero_sorted: List[float], q: float
) -> float:
    """Exact-rank quantile over ``zeros`` 0.0-samples plus sorted values."""
    n = zeros + len(nonzero_sorted)
    if n == 0:
        return 0.0
    rank = max(1, math.ceil(n * q))
    if rank <= zeros:
        return 0.0
    return nonzero_sorted[rank - zeros - 1]


class _EpochSlot:
    """Per-epoch accumulator: zero-latency count plus exact tails."""

    __slots__ = ("zero", "late_zero", "samples", "abandoned")

    def __init__(self) -> None:
        #: adoptions at latency 0.0, late or not
        self.zero = 0
        #: of those, the late ones (a transport run without a retry policy
        #: accrues no elapsed time): counted, not kept one record each
        self.late_zero = 0
        #: (member_id, latency, sync_state) for every nonzero adoption.
        self.samples: List[Tuple[str, float, str]] = []
        #: (member_id, open_for) for intervals that never closed in sync.
        self.abandoned: List[Tuple[str, float]] = []


class LatencyTracker:
    """Records when each member's new group DEK becomes usable per epoch."""

    def __init__(
        self,
        scheme: str = "",
        shard_fn: Optional[Callable[[str], str]] = None,
    ) -> None:
        self.scheme = scheme or "unknown"
        self._shard_fn = shard_fn
        self._epochs: Dict[int, _EpochSlot] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def _shard(self, member_id: str) -> str:
        if self._shard_fn is None:
            return "0"
        return str(self._shard_fn(member_id))

    def _observe_histogram(
        self, shard: str, sync_state: str, latencies: List[float]
    ) -> None:
        registry = obs_metrics.active_registry()
        if registry is not None:
            registry.observe_many(
                LATENCY_METRIC,
                latencies,
                buckets=LATENCY_LOG_BUCKETS_S,
                scheme=self.scheme,
                shard=shard,
                sync_state=sync_state,
            )

    def _slot(self, epoch: int) -> _EpochSlot:
        slot = self._epochs.get(epoch)
        if slot is None:
            slot = self._epochs[epoch] = _EpochSlot()
        return slot

    def observe_delivery(
        self, member_id: str, epoch: int, latency: float
    ) -> None:
        """One member absorbed the epoch's keys: :meth:`observe_deliveries`
        of one, late when ``latency`` is positive, else adopted in round 0."""
        late = (member_id,) if latency > 0.0 else ()
        self.observe_deliveries((member_id,), epoch, {member_id: latency}, late)

    def observe_deliveries(
        self,
        ids: Collection[str],
        epoch: int,
        completed: Dict[str, float],
        late: Collection[str],
    ) -> None:
        """Members ``ids`` absorbed the epoch's keys off the multicast channel.

        ``late`` holds the members that needed a retry round
        (``TransportResult.late``); every other member adopted the DEK in
        round 0.  A late member's latency is the transport's virtual
        elapsed time at the round that satisfied it
        (``TransportResult.completed``), 0.0 when the transport accrued
        none.  The epoch gets zero counts and the late samples at a
        positive latency; histogram batches and ``dek_adopted`` events only
        while a registry or a log listens.
        """
        late_of = {
            rid: completed.get(rid, 0.0) for rid in filter(late.__contains__, ids)
        }
        slow = [(rid, latency, "late") for rid, latency in late_of.items() if latency]
        slot = self._slot(epoch)
        slot.zero += len(ids) - len(slow)
        slot.late_zero += len(late_of) - len(slow)
        slot.samples.extend(slow)
        if obs_metrics.active_registry() is not None:
            # One batch per series, each in ``ids`` order.
            batches: Dict[Tuple[str, str], List[float]] = {}
            for rid in ids:
                latency = late_of.get(rid)
                state = "delivered" if latency is None else "late"
                batches.setdefault((self._shard(rid), state), []).append(
                    latency or 0.0
                )
            for (shard, state), latencies in batches.items():
                self._observe_histogram(shard, state, latencies)
        if late_of and obs_events.active_log() is not None:
            for rid, latency in late_of.items():
                obs_events.emit(
                    "dek_adopted",
                    member_id=rid,
                    epoch=epoch,
                    latency=round(latency, 6),
                    sync_state="late",
                )

    def observe_recovery(self, recovery: "RecoveryEvent") -> None:
        """Unicast catch-up landed: book the measured ``recovery`` under the
        epoch whose delivery its member missed."""
        member_id, latency = recovery.member_id, recovery.latency
        self._slot(recovery.epoch).samples.append((member_id, latency, "resync"))
        self._observe_histogram(self._shard(member_id), "resync", [latency])

    def close_abandoned(
        self, member_id: str, since: Tuple[float, int], now: float, reason: str
    ) -> float:
        """The member left (or the run ended) still out of sync since
        ``since``, its ledger entry."""
        opened_at, epoch = since
        open_for = max(0.0, now - opened_at)
        self._slot(epoch).abandoned.append((member_id, open_for))
        self._observe_histogram(self._shard(member_id), "abandoned", [open_for])
        if obs_events.active_log() is not None:
            obs_events.emit(
                "abandoned_unrecovered",
                member_id=member_id,
                epoch=epoch,
                open_for=round(open_for, 6),
                reason=reason,
            )
        return open_for

    def finish(
        self, out_of_sync: Iterable[Tuple[str, Tuple[float, int]]], now: float
    ) -> int:
        """Close at run end the interval of every ``(member_id, since)``
        ledger entry still out of sync; returns how many."""
        out_of_sync = list(out_of_sync)
        for member_id, since in out_of_sync:
            self.close_abandoned(member_id, since, now, reason="run-end")
        return len(out_of_sync)

    def epoch_complete(self, epoch: int) -> None:
        """Emit the streaming per-epoch summary event (multicast path only —
        resyncs that land later are folded into the final summaries)."""
        if obs_events.active_log() is None:
            return
        stats = self.epoch_percentiles(epoch)
        if stats["members"] == 0:
            return
        obs_events.emit(
            "epoch_latency",
            epoch=epoch,
            members=stats["members"],
            p50=stats["p50"],
            p99=stats["p99"],
            max=stats["max"],
        )

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def epoch_percentiles(self, epoch: int) -> Dict[str, float]:
        """Exact adoption percentiles for one epoch (abandoned excluded)."""
        slot = self._epochs.get(epoch)
        if slot is None:
            return {"members": 0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
        values = sorted(latency for _, latency, _ in slot.samples)
        members = slot.zero + len(values)
        out: Dict[str, float] = {"members": members, "max": values[-1] if values else 0.0}
        for q in SUMMARY_QUANTILES:
            out[f"p{int(q * 100)}"] = round(
                exact_percentile(slot.zero, values, q), 6
            )
        out["max"] = round(out["max"], 6)
        return out

    def epoch_rows(self) -> List[Dict[str, float]]:
        """Per-epoch percentile rows, epoch-ordered (for reports)."""
        rows = []
        for epoch in sorted(self._epochs):
            row = self.epoch_percentiles(epoch)
            row["epoch"] = epoch
            row["abandoned"] = len(self._epochs[epoch].abandoned)
            rows.append(row)
        return rows

    def worst(self, n: int = 5) -> List[Dict[str, object]]:
        """The ``n`` slowest member stories across the run, worst first."""
        entries: List[Tuple[float, str, int, str]] = []
        for epoch, slot in self._epochs.items():
            for member_id, latency, state in slot.samples:
                entries.append((latency, member_id, epoch, state))
            for member_id, open_for in slot.abandoned:
                entries.append((open_for, member_id, epoch, "abandoned"))
        entries.sort(reverse=True)
        return [
            {
                "member": member_id,
                "epoch": epoch,
                "latency_s": round(latency, 6),
                "state": state,
            }
            for latency, member_id, epoch, state in entries[:n]
        ]

    def summary(self) -> Dict[str, object]:
        """Run-level time-to-new-DEK summary (JSON-safe, exact ranks)."""
        zeros = sum(slot.zero for slot in self._epochs.values())
        values: List[float] = []
        late = resyncs = abandoned = 0
        for slot in self._epochs.values():
            late += slot.late_zero
            for _, latency, state in slot.samples:
                values.append(latency)
                if state == "resync":
                    resyncs += 1
                else:
                    late += 1
            abandoned += len(slot.abandoned)
        values.sort()
        count = zeros + len(values)
        out: Dict[str, object] = {
            "count": count,
            "zero_fraction": round(zeros / count, 6) if count else 0.0,
            "late": late,
            "resyncs": resyncs,
            "abandoned_unrecovered": abandoned,
            # Closed intervals only: the simulation closes every interval
            # by departure or at run end (:meth:`finish`).
            "open": 0,
            "max_s": round(values[-1], 6) if values else 0.0,
            "worst": self.worst(5),
        }
        for q in SUMMARY_QUANTILES:
            out[f"p{int(q * 100)}_s"] = round(
                exact_percentile(zeros, values, q), 6
            )
        return out
