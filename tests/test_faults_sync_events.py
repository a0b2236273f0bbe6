"""One record per receiver story.

The tracker books each transition once: going out of sync is one
``abandonment`` event and one ``sync.out_of_sync`` count, and a recovery is
one ``resync`` event carrying exactly what its :class:`RecoveryEvent`
measured.  A late delivery is not a transition at all (it is a latency),
so a trace file alone reconstructs the recovery story a chaos report
summarizes, with no second copy to drift.
"""

from repro import obs
from repro.faults.recovery import RecoveryEvent, SyncState, SyncTracker
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs.latency import LATENCY_METRIC


def drive(tracker):
    """Two receivers go out of sync; one recovers, the other stays out."""
    tracker.admit("m1", epoch=1)
    tracker.admit("m2", epoch=1)
    tracker.mark_out_of_sync("m1", epoch=2, now=130.0)
    tracker.mark_out_of_sync("m2", epoch=3, now=150.0)
    tracker.mark_recovered("m1", epoch=3, now=190.0, keys_sent=5)


def test_transitions_emit_matching_events():
    with obs_events.logging() as log:
        tracker = SyncTracker()
        drive(tracker)
    assert [
        (record["type"], record["member_id"], record["epoch"], record["time"])
        for record in log.records
    ] == [
        ("abandonment", "m1", 2, 130.0),
        ("abandonment", "m2", 3, 150.0),
        ("resync", "m1", 2, 190.0),
    ]
    assert tracker.counts() == {"in-sync": 1, "out-of-sync": 1}


def test_resync_event_matches_measured_recovery():
    with obs_events.logging() as log:
        tracker = SyncTracker()
        drive(tracker)
        tracker.mark_recovered("m2", epoch=5, now=400.0, keys_sent=7)

    resyncs = log.of_type("resync")
    assert len(resyncs) == len(tracker.events) == 2
    for resync, measured in zip(resyncs, tracker.events):
        assert isinstance(measured, RecoveryEvent)
        for field in ("member_id", "epoch", "latency", "keys_sent", "epochs_missed"):
            assert resync[field] == getattr(measured, field)
    first, second = tracker.events
    assert (first.epoch, first.latency, first.epochs_missed) == (2, 60.0, 2)
    assert (second.epoch, second.latency, second.epochs_missed) == (3, 250.0, 3)


def test_counters_track_the_state_machine():
    with obs_metrics.collecting() as registry:
        tracker = SyncTracker()
        drive(tracker)
    assert registry.counter_total("sync.out_of_sync") == 2
    # A recovery is the server's ``server.catchups``; the tracker books
    # nothing else in the registry.
    assert set(registry.to_json()) == {"sync.out_of_sync"}


def test_out_of_sync_is_idempotent_in_the_log():
    with obs_events.logging() as log, obs_metrics.collecting() as registry:
        tracker = SyncTracker()
        tracker.admit("m1", epoch=1)
        tracker.mark_out_of_sync("m1", epoch=2, now=10.0)
        tracker.mark_out_of_sync("m1", epoch=3, now=20.0)  # already out
    assert log.count() == log.count("abandonment") == 1
    assert registry.counter_total("sync.out_of_sync") == 1
    assert tracker.state_of("m1") is SyncState.OUT_OF_SYNC
    # The ledger keeps the earliest interval: the operator cares about
    # total time out of sync, not the latest failure.
    assert dict(tracker.desynced) == {"m1": (10.0, 2)}


def test_tracker_quiet_without_active_log():
    # No collector installed: the tracker still measures, nothing crashes.
    tracker = SyncTracker()
    drive(tracker)
    assert len(tracker.events) == 1
    assert tracker.counts()["in-sync"] == 1


def test_a_chaos_run_books_each_story_once():
    """Every copy of a receiver story in a seeded chaos run agrees: the
    events, the registry, the latency histogram and the report."""
    from repro.faults.chaos import run_chaos_case

    with obs.observe() as bundle:
        entry = run_chaos_case("one", "blackout-resync", seed=7, horizon=900.0)
    counts = {}
    for record in bundle.events.records:
        counts[record["type"]] = counts.get(record["type"], 0) + 1
    registry = bundle.registry
    by_state = {}
    for key, slot in registry.to_json()[LATENCY_METRIC]["series"].items():
        state = key.split("|")[2]
        by_state[state] = by_state.get(state, 0) + slot["count"]

    abandonments, resyncs = counts["abandonment"], counts["resync"]
    assert resyncs > 0 and abandonments > resyncs, "no unrecovered story"
    assert abandonments == resyncs + counts["abandoned_unrecovered"]
    assert abandonments == registry.counter_total("sync.out_of_sync")
    assert resyncs == registry.counter_total("server.catchups")
    assert resyncs == entry["counters"]["server.catchups"]
    assert resyncs == by_state["resync"] == entry["recoveries"]["count"]
    assert counts.get("dek_adopted", 0) == by_state.get("late", 0)
    assert set(entry["sync_counts"]) == {"in-sync", "out-of-sync"}
