"""Structured, schema-versioned event log.

Every notable state change in a run — membership churn, rekey epochs,
transport retry rounds, abandonments, resyncs, late DEK adoptions, server
crashes — is recorded as one flat JSON object, from one place.  The log serialises to
JSONL (one record per line) inside the ``--trace`` file, interleaved with
span records, so a single file replays the whole run.

Records always carry::

    {"record": "event", "schema": 3, "type": <type>, "time": <sim time>, ...}

``time`` is simulated seconds when the log has a clock bound (simulations
bind theirs at start), else whatever the emitter passed, else ``null``.
:data:`EVENT_TYPES` pins the required payload fields per type;
:func:`validate_record` enforces them and is what the CI ``obs-smoke``
job runs over every line of a trace file.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional

SCHEMA_VERSION = 3

#: Required payload fields per event type (beyond record/schema/type/time).
#: Every ``abandonment`` gets exactly one terminal — ``resync`` when
#: unicast catch-up lands, ``abandoned_unrecovered`` when the member
#: departs (or the run ends) still out of sync — so latency intervals can
#: never leak open.  ``dek_adopted`` is a late delivery: a member the
#: transport satisfied only after retry rounds.
EVENT_TYPES: Dict[str, FrozenSet[str]] = {
    "join": frozenset({"member_id"}),
    "departure": frozenset({"member_id"}),
    "epoch": frozenset({"epoch", "joins", "departures", "cost"}),
    "retry_round": frozenset({"round", "packets", "keys_pending"}),
    "abandonment": frozenset({"member_id", "epoch"}),
    "resync": frozenset({"member_id", "epoch", "keys_sent", "epochs_missed", "latency"}),
    "crash": frozenset({"epoch"}),
    "dek_adopted": frozenset({"member_id", "epoch", "latency", "sync_state"}),
    "epoch_latency": frozenset({"epoch", "members", "p50", "p99", "max"}),
    "abandoned_unrecovered": frozenset({"member_id", "epoch", "open_for", "reason"}),
}


def validate_record(record: Dict[str, object]) -> None:
    """Raise ``ValueError`` unless ``record`` is a valid event record."""
    if not isinstance(record, dict):
        raise ValueError(f"event record must be an object, got {type(record).__name__}")
    if record.get("record") != "event":
        raise ValueError(f"not an event record: {record.get('record')!r}")
    if record.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported event schema {record.get('schema')!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    etype = record.get("type")
    required = EVENT_TYPES.get(etype)  # type: ignore[arg-type]
    if required is None:
        raise ValueError(f"unknown event type {etype!r}")
    if "time" not in record:
        raise ValueError(f"event {etype!r} is missing 'time'")
    missing = required - set(record)
    if missing:
        raise ValueError(f"event {etype!r} is missing fields {sorted(missing)}")


class EventLog:
    """An in-memory list of validated event records."""

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self.clock = clock
        self.records: List[Dict[str, object]] = []

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """(Re)wire the simulated-time clock — simulations call this at start."""
        self.clock = clock

    def emit(self, type: str, **fields: object) -> Dict[str, object]:
        """Append one event; stamps ``time`` from the clock when not given."""
        record: Dict[str, object] = {
            "record": "event",
            "schema": SCHEMA_VERSION,
            "type": type,
        }
        if "time" not in fields:
            record["time"] = self.clock() if self.clock is not None else None
        record.update(fields)
        validate_record(record)
        self.records.append(record)
        return record

    def count(self, type: Optional[str] = None) -> int:
        if type is None:
            return len(self.records)
        return sum(1 for record in self.records if record["type"] == type)

    def of_type(self, type: str) -> List[Dict[str, object]]:
        return [record for record in self.records if record["type"] == type]


# ----------------------------------------------------------------------
# the active log and the cheap module-level probe
# ----------------------------------------------------------------------

_ACTIVE: Optional[EventLog] = None


def active_log() -> Optional[EventLog]:
    return _ACTIVE


@contextmanager
def logging(log: Optional[EventLog] = None) -> Iterator[EventLog]:
    """Install ``log`` (fresh one by default) for the ``with`` body."""
    global _ACTIVE
    if log is None:
        log = EventLog()
    previous = _ACTIVE
    _ACTIVE = log
    try:
        yield log
    finally:
        _ACTIVE = previous


def emit(type: str, **fields: object) -> None:
    """Emit an event into the active log (no-op when none)."""
    log = _ACTIVE
    if log is not None:
        log.emit(type, **fields)
