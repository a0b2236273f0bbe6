"""Structured event log: schema validation, clock stamping, probes."""

import pytest

from repro.obs import events


def test_emit_builds_valid_record():
    log = events.EventLog()
    record = log.emit("join", time=12.0, member_id="m1")
    assert record["record"] == "event"
    assert record["schema"] == events.SCHEMA_VERSION
    assert record["type"] == "join"
    assert record["member_id"] == "m1"
    events.validate_record(record)


def test_emit_stamps_time_from_clock():
    log = events.EventLog(clock=lambda: 99.5)
    record = log.emit("crash", epoch=3)
    assert record["time"] == 99.5


def test_emit_without_clock_stamps_none():
    log = events.EventLog()
    assert log.emit("crash", epoch=1)["time"] is None


def test_missing_required_field_rejected():
    log = events.EventLog()
    with pytest.raises(ValueError, match="missing fields"):
        log.emit("epoch", time=0.0, epoch=1, joins=2)  # no departures/cost


def test_unknown_type_rejected():
    log = events.EventLog()
    with pytest.raises(ValueError, match="unknown event type"):
        log.emit("sandwich", time=0.0)


def test_validate_record_checks_schema_version():
    record = {"record": "event", "schema": 999, "type": "crash",
              "time": 0.0, "epoch": 1}
    with pytest.raises(ValueError, match="schema"):
        events.validate_record(record)


def test_count_and_of_type():
    log = events.EventLog()
    log.emit("join", time=0.0, member_id="a")
    log.emit("join", time=1.0, member_id="b")
    log.emit("departure", time=2.0, member_id="a")
    assert log.count() == 3
    assert log.count("join") == 2
    assert [r["member_id"] for r in log.of_type("departure")] == ["a"]


def test_module_probe_is_noop_when_disabled():
    assert events.active_log() is None
    events.emit("join", time=0.0, member_id="never-recorded")


def test_logging_installs_and_restores():
    with events.logging() as log:
        assert events.active_log() is log
        events.emit("crash", time=5.0, epoch=2)
    assert events.active_log() is None
    assert log.count("crash") == 1


def test_every_event_type_has_a_schema():
    # The set the docs and the trace validator promise.
    assert set(events.EVENT_TYPES) == {
        "join", "departure", "epoch", "retry_round", "abandonment",
        "resync", "crash", "dek_adopted", "epoch_latency",
        "abandoned_unrecovered",
    }


def test_schema_1_records_are_unsupported():
    join = {"record": "event", "type": "join", "time": 0.0, "member_id": "a"}
    events.validate_record({**join, "schema": 3})
    for schema in (1, 2, 4, None):
        with pytest.raises(ValueError, match="unsupported event schema"):
            events.validate_record({**join, "schema": schema})
