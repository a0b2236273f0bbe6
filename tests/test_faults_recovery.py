"""The per-receiver epoch state machine and measured recovery events."""

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.recovery import (
    RecoveryEvent,
    SyncState,
    SyncTracker,
    latency_summary,
)
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics


class TestSyncTracker:
    def test_admit_and_forget(self):
        tracker = SyncTracker()
        tracker.admit("m", epoch=3)
        assert "m" in tracker
        assert tracker.state_of("m") is SyncState.IN_SYNC
        tracker.forget("m")
        assert "m" not in tracker
        tracker.forget("m")  # idempotent
        with pytest.raises(KeyError):
            tracker.state_of("m")

    def test_multicast_cannot_repair_out_of_sync(self):
        tracker = SyncTracker()
        tracker.admit("m", epoch=1)
        tracker.mark_out_of_sync("m", epoch=2, now=60.0)
        # The tracker has no multicast transition: a later abandonment
        # keeps the receiver out, and only a unicast recovery brings it back.
        tracker.mark_out_of_sync("m", epoch=3, now=120.0)
        assert tracker.state_of("m") is SyncState.OUT_OF_SYNC
        tracker.mark_recovered("m", epoch=3, now=130.0, keys_sent=1)
        assert tracker.state_of("m") is SyncState.IN_SYNC

    def test_recovery_event_measures_from_first_desync(self):
        tracker = SyncTracker()
        tracker.admit("m", epoch=1)
        # Abandoned at t=65 on epoch 2 (and again, already out, at t=90),
        # recovered at t=120 after the server processed epoch 4.
        tracker.mark_out_of_sync("m", epoch=2, now=65.0)
        tracker.mark_out_of_sync("m", epoch=3, now=90.0)
        event = tracker.mark_recovered("m", epoch=4, now=120.0, keys_sent=5)
        assert event.latency == pytest.approx(55.0)  # 120 - 65
        assert event.epoch == 2
        assert event.epochs_missed == 3  # epochs 2, 3, 4
        assert event.keys_sent == 5
        assert tracker.state_of("m") is SyncState.IN_SYNC
        assert tracker.events == [event]

    def test_out_of_sync_listing_and_counts(self):
        tracker = SyncTracker()
        for member in ("a", "b", "c"):
            tracker.admit(member, epoch=1)
        tracker.mark_out_of_sync("b", epoch=2, now=1.0)
        assert tracker.out_of_sync() == ["b"]
        assert tracker.counts() == {"in-sync": 2, "out-of-sync": 1}

    def test_unknown_member_gets_an_in_sync_slot(self):
        tracker = SyncTracker()
        event = tracker.mark_recovered("new", epoch=4, now=200.0, keys_sent=3)
        assert "new" in tracker
        assert tracker.state_of("new") is SyncState.IN_SYNC
        assert (event.latency, event.epoch, event.epochs_missed) == (0.0, 4, 1)
        assert tracker.counts() == {"in-sync": 1, "out-of-sync": 0}
        # A transition from that slot starts where a fresh one does.
        tracker.mark_out_of_sync("late", epoch=5, now=300.0)
        assert tracker.state_of("late") is SyncState.OUT_OF_SYNC
        event = tracker.mark_recovered("late", epoch=5, now=310.0, keys_sent=2)
        assert event.latency == pytest.approx(10.0)
        assert tracker.state_of("late") is SyncState.IN_SYNC


class TestLatencySummary:
    def test_empty(self):
        assert latency_summary([]) == {"count": 0}

    def test_distribution(self):
        events = [
            RecoveryEvent("m0", epoch=1, desynced_at=0.0, recovered_at=30.0,
                          epochs_missed=1, keys_sent=3),
            RecoveryEvent("m1", epoch=1, desynced_at=0.0, recovered_at=60.0,
                          epochs_missed=2, keys_sent=5),
            RecoveryEvent("m2", epoch=1, desynced_at=10.0, recovered_at=100.0,
                          epochs_missed=4, keys_sent=4),
        ]
        summary = latency_summary(events)
        assert summary["count"] == 3
        assert summary["latency_min_s"] == 30.0
        assert summary["latency_max_s"] == 90.0
        assert summary["latency_mean_s"] == pytest.approx(60.0)
        assert summary["latency_p50_s"] == 60.0
        assert summary["latency_p99_s"] == 90.0
        assert summary["keys_total"] == 12
        assert summary["epochs_missed_max"] == 4


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


class PerSlotSyncTracker:
    """Oracle: ``SyncTracker`` as it was before it stored only receivers
    out of step — one :class:`ReceiverSync` slot per known receiver — in
    the two states the tracker has."""

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
        """``member_id``'s slot; an unknown member gets a fresh in-sync one."""
        slot = self._receivers.get(member_id)
        if slot is None:
            slot = self._receivers[member_id] = ReceiverSync()
        return slot

    def mark_out_of_sync(self, member_id: str, epoch: int, now: float) -> None:
        """The transport abandoned this receiver: it can no longer follow
        the multicast rekey stream."""
        slot = self._slot(member_id)
        if slot.state is SyncState.OUT_OF_SYNC:
            return
        slot.state = SyncState.OUT_OF_SYNC
        slot.desynced_at = now
        slot.desynced_epoch = epoch
        obs_events.emit("abandonment", time=now, member_id=member_id, epoch=epoch)
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
            epoch=desynced_epoch,
            keys_sent=event.keys_sent,
            epochs_missed=event.epochs_missed,
            latency=event.latency,
        )
        slot.state = SyncState.IN_SYNC
        slot.synced_epoch = epoch
        slot.desynced_at = None
        slot.desynced_epoch = None
        return event


MEMBERS = ["a", "b", "c"]
MEMBER = st.sampled_from(MEMBERS)
EPOCH = st.integers(0, 6)
NOW = st.integers(0, 400).map(float)
TRANSITIONS = [
    st.tuples(st.just("mark_out_of_sync"), MEMBER, EPOCH, NOW),
    st.tuples(st.just("mark_recovered"), MEMBER, EPOCH, NOW, st.integers(0, 9)),
]
# Transitions twice as likely as the rest, so that out of sync ->
# recovered stories form often.
STEP = st.one_of(
    *TRANSITIONS,
    *TRANSITIONS,
    st.tuples(st.just("admit"), MEMBER, EPOCH),
    st.tuples(st.just("forget"), MEMBER),
)


def records(log):
    """A log's events as a multiset of their fields."""
    return Counter(tuple(sorted(record.items())) for record in log.records)


class TestAgainstPerSlotTracker:
    """The tracker that stores only out-of-step receivers against the one
    that kept a slot per receiver, over transition sequences."""

    @staticmethod
    def assert_agree(steps):
        oracle, tracker = PerSlotSyncTracker(), SyncTracker()
        logs = {id(oracle): obs_events.EventLog(), id(tracker): obs_events.EventLog()}
        registries = {id(oracle): obs_metrics.MetricsRegistry(),
                      id(tracker): obs_metrics.MetricsRegistry()}
        for name, *args in steps:
            for each in (oracle, tracker):
                with obs_events.logging(logs[id(each)]), obs_metrics.collecting(
                    registries[id(each)]
                ):
                    getattr(each, name)(*args)
            for member_id in MEMBERS:
                assert (member_id in tracker) == (member_id in oracle)
                if member_id in oracle:
                    assert tracker.state_of(member_id) is oracle.state_of(member_id)
                else:
                    with pytest.raises(KeyError):
                        tracker.state_of(member_id)
            assert tracker.counts() == oracle.counts()
            assert set(tracker.out_of_sync()) == set(oracle.out_of_sync())
            assert tracker.events == oracle.events
            assert records(logs[id(tracker)]) == records(logs[id(oracle)])
        assert (
            registries[id(tracker)].to_prometheus()
            == registries[id(oracle)].to_prometheus()
        )

    @settings(max_examples=300, deadline=None)
    @given(steps=st.lists(STEP, min_size=8, max_size=40))
    def test_random_sequences(self, steps):
        self.assert_agree(steps)

    @pytest.mark.parametrize(
        "story",
        [
            # out of sync twice before recovery: measured from the first
            [("mark_out_of_sync", "a", 2, 60.0), ("mark_out_of_sync", "a", 3, 65.0),
             ("mark_recovered", "a", 4, 120.0, 5)],
            # recovered, out again, recovered again
            [("admit", "a", 1), ("mark_out_of_sync", "a", 2, 60.0),
             ("mark_recovered", "a", 2, 90.0, 3),
             ("mark_out_of_sync", "a", 3, 90.0), ("mark_recovered", "a", 3, 95.0, 1)],
            # out of sync, re-admitted, out again, forgotten, recovered
            [("mark_out_of_sync", "b", 1, 10.0), ("admit", "b", 3),
             ("mark_out_of_sync", "b", 3, 30.0), ("forget", "b"),
             ("mark_recovered", "b", 4, 40.0, 2)],
        ],
    )
    def test_recovery_stories(self, story):
        self.assert_agree(story)

    def test_out_of_sync_lists_in_the_order_members_went_out(self):
        tracker = SyncTracker()
        for member in ("a", "b", "c"):
            tracker.admit(member, epoch=1)
        tracker.mark_out_of_sync("c", epoch=2, now=1.0)
        tracker.mark_out_of_sync("a", epoch=2, now=2.0)
        assert tracker.out_of_sync() == ["c", "a"]
