"""Chrome ``trace_event`` export: open repro traces in Perfetto.

Converts a parsed ``--trace`` JSONL file (see :func:`repro.obs.read_trace`)
into the Chrome trace-event JSON format, so the epoch → rekey → shard →
transport-round span tree opens directly in https://ui.perfetto.dev or
``chrome://tracing``.  Span records become ``"X"`` (complete) events on
the wall-clock timeline, span events — fault windows, crashes — become
``"i"`` (instant) events, and each track gets a ``"M"`` thread-name
metadata record.

Every span carries ``wall_start_s``, so events sit at their true
wall-clock offsets (rebased to the earliest span = 0).

Spans that overlap without nesting (e.g. per-partition batch slices
recorded via ``add_span``) are fanned out across additional tracks, keeping every
track properly nested with monotone timestamps — the property
:func:`validate_chrome_trace` enforces, together with all-finite numbers
(Perfetto rejects NaN).  Timestamps are integer microseconds.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

#: Single logical process for the whole trace.
TRACE_PID = 1

_INSTANT_PHASES = frozenset({"i", "I"})
_KNOWN_PHASES = frozenset({"X", "M"}) | _INSTANT_PHASES


def _finite(value: object, default: float = 0.0) -> float:
    """Coerce to a finite float (NaN/inf/non-numbers become ``default``)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return default
    value = float(value)
    return value if math.isfinite(value) else default


def _us(seconds: float) -> int:
    return int(round(seconds * 1_000_000))


def _assign_tracks(
    intervals: List[Tuple[Dict[str, object], int, int]],
) -> List[Tuple[Dict[str, object], int, int, int]]:
    """Give every interval a tid such that each track is properly nested.

    Greedy: intervals sorted by (start, -duration); each track keeps a
    stack of open interval ends.  An interval joins the first track where
    it either starts after everything closed or fits inside the innermost
    open interval — otherwise a new track is opened.  Within a track,
    assignment order is start order, so timestamps are monotone.
    """
    ordered = sorted(
        intervals, key=lambda item: (item[1], -item[2], item[0].get("span_id", 0))
    )
    stacks: List[List[int]] = []
    out: List[Tuple[Dict[str, object], int, int, int]] = []
    for span, start, dur in ordered:
        end = start + dur
        tid = None
        for index, stack in enumerate(stacks):
            while stack and stack[-1] <= start:
                stack.pop()
            if not stack or end <= stack[-1]:
                tid = index
                break
        if tid is None:
            tid = len(stacks)
            stacks.append([])
        stacks[tid].append(end)
        out.append((span, start, dur, tid))
    return out


def export_chrome_trace(
    records: List[Dict[str, object]],
    path: Optional[Union[str, Path]] = None,
) -> Dict[str, object]:
    """Convert parsed trace records to a Chrome trace-event document.

    ``records`` is the output of :func:`repro.obs.read_trace` (header
    first).  Returns the document; when ``path`` is given, also writes it
    as JSON (``allow_nan=False`` — a poisoned duration can never reach
    the file).
    """
    header = records[0] if records else {}
    spans = [r for r in records if r.get("record") == "span"]
    # One zero-based wall-clock timeline; span events carry absolute wall_s.
    wall_t0 = min((_finite(span["wall_start_s"]) for span in spans), default=0.0)
    placed = _assign_tracks(
        [
            (
                span,
                _us(_finite(span["wall_start_s"]) - wall_t0),
                max(0, _us(_finite(span["wall_s"]))),
            )
            for span in spans
        ]
    )

    events: List[Dict[str, object]] = []
    tids_used = set()

    for span, ts, dur, tid in placed:
        tids_used.add(tid)
        args: Dict[str, object] = dict(span.get("attributes") or {})
        for key in ("sim_start", "sim_end", "span_id", "parent_id"):
            if span.get(key) is not None:
                args[key] = span[key]
        events.append(
            {
                "name": str(span.get("name", "span")),
                "cat": "span",
                "ph": "X",
                "pid": TRACE_PID,
                "tid": tid,
                "ts": ts,
                "dur": dur,
                "args": args,
            }
        )
        for note in span.get("events") or ():
            if not isinstance(note, dict):
                continue
            if isinstance(note.get("wall_s"), (int, float)):
                note_ts = _us(_finite(note["wall_s"]) - wall_t0)
                note_ts = min(max(note_ts, ts), ts + dur)
            else:
                note_ts = ts
            note_args: Dict[str, object] = dict(note.get("attributes") or {})
            if note.get("sim_time") is not None:
                note_args["sim_time"] = note["sim_time"]
            events.append(
                {
                    "name": str(note.get("name", "event")),
                    "cat": "span-event",
                    "ph": "i",
                    "s": "t",
                    "pid": TRACE_PID,
                    "tid": tid,
                    "ts": note_ts,
                    "args": note_args,
                }
            )

    events.sort(key=lambda event: (event["ts"], event["ph"] != "X"))
    metadata: List[Dict[str, object]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": TRACE_PID,
            "tid": 0,
            "ts": 0,
            "args": {"name": "repro"},
        }
    ]
    for tid in sorted(tids_used):
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": TRACE_PID,
                "tid": tid,
                "ts": 0,
                "args": {"name": "spans" if tid == 0 else f"spans overflow {tid}"},
            }
        )
    doc: Dict[str, object] = {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro-trace",
            "trace_schema": header.get("schema"),
        },
    }
    if path is not None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        with tmp.open("w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, allow_nan=False)
            fh.write("\n")
        tmp.replace(path)
    return doc


def validate_chrome_trace(doc: Dict[str, object]) -> Dict[str, int]:
    """Validate a Chrome trace document; returns per-phase event counts.

    Enforces what Perfetto needs to load the file: a ``traceEvents``
    array of objects, known phases, finite non-negative integer-valued
    ``ts`` (and ``dur`` for complete events), and monotone non-decreasing
    ``ts`` for the complete events of each ``(pid, tid)`` track.  Raises
    ``ValueError`` on the first violation.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        raise ValueError("chrome trace must be an object with a traceEvents array")
    counts: Dict[str, int] = {}
    last_ts: Dict[Tuple[object, object], float] = {}
    for position, event in enumerate(doc["traceEvents"]):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{position}] is not an object")
        phase = event.get("ph")
        if phase not in _KNOWN_PHASES:
            raise ValueError(f"traceEvents[{position}] has unknown phase {phase!r}")
        if not isinstance(event.get("name"), str) or not event["name"]:
            raise ValueError(f"traceEvents[{position}] is missing a name")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                raise ValueError(f"traceEvents[{position}] needs integer {field!r}")
        required_numbers = ("ts", "dur") if phase == "X" else ("ts",)
        for field in required_numbers:
            value = event.get(field)
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not math.isfinite(value)
                or value < 0
            ):
                raise ValueError(
                    f"traceEvents[{position}] field {field!r} must be a "
                    f"finite non-negative number, got {value!r}"
                )
        if phase == "X":
            track = (event["pid"], event["tid"])
            if event["ts"] < last_ts.get(track, 0):
                raise ValueError(
                    f"traceEvents[{position}]: ts went backwards on track "
                    f"{track} ({event['ts']} < {last_ts[track]})"
                )
            last_ts[track] = event["ts"]
        counts[phase] = counts.get(phase, 0) + 1
    return counts
