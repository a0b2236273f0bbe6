"""The per-receiver epoch state machine and measured recovery events."""

import pytest

from repro.faults.recovery import (
    RecoveryEvent,
    SyncState,
    SyncTracker,
    latency_summary,
)


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

    def test_lagging_then_delivered_returns_to_sync(self):
        tracker = SyncTracker()
        tracker.admit("m", epoch=1)
        tracker.mark_lagging("m", epoch=2, now=60.0)
        assert tracker.state_of("m") is SyncState.LAGGING
        tracker.mark_delivered("m", epoch=2)
        assert tracker.state_of("m") is SyncState.IN_SYNC

    def test_multicast_cannot_repair_out_of_sync(self):
        tracker = SyncTracker()
        tracker.admit("m", epoch=1)
        tracker.mark_out_of_sync("m", epoch=2, now=60.0)
        tracker.mark_delivered("m", epoch=3)
        assert tracker.state_of("m") is SyncState.OUT_OF_SYNC
        tracker.mark_lagging("m", epoch=3, now=70.0)
        assert tracker.state_of("m") is SyncState.OUT_OF_SYNC

    def test_recovery_event_measures_from_first_desync(self):
        tracker = SyncTracker()
        tracker.admit("m", epoch=1)
        # Went lagging at t=60 on epoch 2, abandoned at t=65, recovered at
        # t=120 after the server processed epoch 4.
        tracker.mark_lagging("m", epoch=2, now=60.0)
        tracker.mark_out_of_sync("m", epoch=2, now=65.0)
        event = tracker.mark_recovered("m", epoch=4, now=120.0, keys_sent=5)
        assert event.latency == pytest.approx(60.0)  # 120 - 60 (lagging)
        assert event.epochs_missed == 3  # epochs 2, 3, 4
        assert event.keys_sent == 5
        assert tracker.state_of("m") is SyncState.IN_SYNC
        assert tracker.events == [event]

    def test_out_of_sync_listing_and_counts(self):
        tracker = SyncTracker()
        for member in ("a", "b", "c"):
            tracker.admit(member, epoch=1)
        tracker.mark_out_of_sync("b", epoch=2, now=1.0)
        tracker.mark_lagging("c", epoch=2, now=1.0)
        assert tracker.out_of_sync() == ["b"]
        assert tracker.counts() == {
            "in-sync": 1, "lagging": 1, "out-of-sync": 1
        }

    def test_unknown_member_gets_an_in_sync_slot(self):
        tracker = SyncTracker()
        tracker.mark_delivered("new", epoch=4)
        assert "new" in tracker
        assert tracker.state_of("new") is SyncState.IN_SYNC
        assert tracker.counts() == {"in-sync": 1, "lagging": 0, "out-of-sync": 0}
        # A transition from that slot starts where a fresh one does.
        tracker.mark_lagging("late", epoch=5, now=300.0)
        assert tracker.state_of("late") is SyncState.LAGGING
        event = tracker.mark_recovered("late", epoch=5, now=310.0, keys_sent=2)
        assert event.latency == pytest.approx(10.0)
        assert tracker.state_of("late") is SyncState.IN_SYNC


class TestLatencySummary:
    def test_empty(self):
        assert latency_summary([]) == {"count": 0}

    def test_distribution(self):
        events = [
            RecoveryEvent("m0", desynced_at=0.0, recovered_at=30.0,
                          epochs_missed=1, keys_sent=3),
            RecoveryEvent("m1", desynced_at=0.0, recovered_at=60.0,
                          epochs_missed=2, keys_sent=5),
            RecoveryEvent("m2", desynced_at=10.0, recovered_at=100.0,
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
