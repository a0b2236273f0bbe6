"""SyncTracker transitions must emit matching structured events.

Satellite contract: every state-machine transition the tracker *measures*
(its ``RecoveryEvent`` list, its state counts) is mirrored by a
``sync_transition``/``resync`` record in the active event log, carrying
the same member, states and measured costs — so a trace file alone can
reconstruct the recovery story a chaos report summarizes.
"""

from repro.faults.recovery import RecoveryEvent, SyncState, SyncTracker
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics


def drive(tracker):
    """in-sync -> lagging -> out-of-sync -> recovered, plus a lagging dip."""
    tracker.admit("m1", epoch=1)
    tracker.admit("m2", epoch=1)
    tracker.mark_lagging("m1", epoch=2, now=100.0)
    tracker.mark_out_of_sync("m1", epoch=2, now=130.0)
    tracker.mark_recovered("m1", epoch=3, now=190.0, keys_sent=5)
    tracker.mark_lagging("m2", epoch=3, now=150.0)
    tracker.mark_delivered("m2", epoch=3)


def test_transitions_emit_matching_events():
    with obs_events.logging() as log:
        tracker = SyncTracker()
        drive(tracker)

    transitions = log.of_type("sync_transition")
    assert [
        (t["member_id"], t["from_state"], t["to_state"]) for t in transitions
    ] == [
        ("m1", "in-sync", "lagging"),
        ("m1", "lagging", "out-of-sync"),
        ("m1", "out-of-sync", "in-sync"),
        ("m2", "in-sync", "lagging"),
        ("m2", "lagging", "in-sync"),
    ]
    # Timed transitions are stamped with the simulation time passed in.
    assert transitions[0]["time"] == 100.0
    assert transitions[1]["time"] == 130.0
    assert transitions[2]["time"] == 190.0


def test_resync_event_matches_measured_recovery():
    with obs_events.logging() as log:
        tracker = SyncTracker()
        drive(tracker)

    (measured,) = tracker.events
    assert isinstance(measured, RecoveryEvent)
    (resync,) = log.of_type("resync")
    assert resync["member_id"] == measured.member_id
    assert resync["keys_sent"] == measured.keys_sent
    assert resync["epochs_missed"] == measured.epochs_missed
    assert resync["latency"] == measured.latency
    assert measured.latency == 90.0
    assert measured.epochs_missed == 2


def test_counters_track_the_state_machine():
    with obs_metrics.collecting() as registry:
        tracker = SyncTracker()
        drive(tracker)
    assert registry.counter_total("sync.out_of_sync") == 1
    assert registry.counter_total("sync.recoveries") == 1
    assert registry.histogram("sync.recovery_keys").stats()["sum"] == 5


def test_out_of_sync_is_idempotent_in_the_log():
    with obs_events.logging() as log:
        tracker = SyncTracker()
        tracker.admit("m1", epoch=1)
        tracker.mark_out_of_sync("m1", epoch=2, now=10.0)
        tracker.mark_out_of_sync("m1", epoch=3, now=20.0)  # already out
        tracker.mark_delivered("m1", epoch=3)  # multicast can't repair
    assert log.count("sync_transition") == 1
    assert tracker.state_of("m1") is SyncState.OUT_OF_SYNC
    # The ledger keeps the earliest interval: the operator cares about
    # total time out of sync, not the latest failure.
    assert dict(tracker.desynced) == {"m1": (10.0, 2)}


def test_tracker_quiet_without_active_log():
    # No collector installed: the tracker still measures, nothing crashes.
    tracker = SyncTracker()
    drive(tracker)
    assert len(tracker.events) == 1
    assert tracker.counts()["in-sync"] == 2
