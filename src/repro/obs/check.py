"""Cross-validate a trace file against a metrics exposition.

``python -m repro.obs.check trace.jsonl metrics.prom`` — the CI
``obs-smoke`` job's teeth.  Verifies that:

1. the Prometheus exposition parses (strict line grammar), and every
   histogram series in it is whole: cumulative buckets never decrease
   and ``le="+Inf"`` equals ``_count`` (:func:`check_histograms`, which
   the CI ``obs-latency`` job also runs on a live mid-run scrape);
2. every JSONL record in the trace validates against the schema;
3. each epoch is booked once — no ``epoch`` event repeats the epoch and
   sim time of the one before it (a batch lost in a server crash leaves
   no record; a trace of several runs restarts at epoch 1) — and the
   epoch count agrees across all three planes: the
   ``repro_server_rekeys_total`` counter in the exposition, the number
   of ``epoch`` events in the trace, and the ``server.rekeys`` counter
   inside the trace's embedded metrics snapshot;
4. **the latency ledger**: every ``abandonment`` event's member-epoch
   story reaches one terminal event — abandonments must equal ``resync``
   + ``abandoned_unrecovered`` — and each fact's other record agrees
   with its event: the ``sync.out_of_sync`` / ``server.catchups``
   counters with the ``abandonment`` / ``resync`` events and, when the
   ``rekey.latency`` histogram is in the snapshot, its ``resync`` /
   ``abandoned`` / ``late`` series counts with the ``resync`` /
   ``abandoned_unrecovered`` / ``dek_adopted`` events, and its
   ``delivered`` + ``late`` counts with the members the
   ``epoch_latency`` events summarise;
5. with ``--chrome FILE``, that the exported Chrome trace-event JSON is
   Perfetto-loadable (:func:`repro.obs.chrometrace.validate_chrome_trace`)
   and carries exactly one complete (``"X"``) event per span record.

Exits 0 and prints one summary line on success; prints the failure and
exits 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.obs import read_trace, validate_trace_records
from repro.obs.metrics import parse_prometheus


_LE = re.compile(r'(?:^|,)le="([^"]*)"')


def check_histograms(samples: Dict[str, float]) -> int:
    """Check every histogram series of a parsed exposition
    (:func:`~repro.obs.metrics.parse_prometheus`) is whole: its cumulative
    buckets never decrease, the last is ``le="+Inf"`` and it equals the
    series' ``_count``.  Returns how many series were checked; raises
    ``ValueError`` on the first torn one."""
    series: Dict[Tuple[str, str], List[Tuple[str, float]]] = {}
    for sample, value in samples.items():
        name, _, labels = sample.partition("{")
        match = _LE.search(labels)
        if name.endswith("_bucket") and match is not None:
            rest = labels[: match.start()] + labels[match.end():]
            key = (name[: -len("_bucket")], "{" + rest if rest != "}" else "")
            series.setdefault(key, []).append((match.group(1), value))
    for (base, labels), buckets in series.items():
        counts = [count for _, count in buckets]
        total = samples.get(f"{base}_count{labels}")
        if counts != sorted(counts) or buckets[-1][0] != "+Inf" or counts[-1] != total:
            raise ValueError(
                f"torn histogram {base}{labels}: cumulative buckets {counts}, "
                f"_count {total}"
            )
    return len(series)


def _latency_state_counts(metrics_snapshot: Dict[str, object]) -> Optional[Dict[str, int]]:
    """Observation counts of ``rekey.latency`` keyed by ``sync_state``.

    Returns None when the histogram isn't in the snapshot (cost-only runs
    and pre-latency traces don't record it).
    """
    entry = metrics_snapshot.get("rekey.latency")
    if not isinstance(entry, dict) or entry.get("kind") != "histogram":
        return None
    labels = list(entry.get("labels", ()))
    if "sync_state" not in labels:
        return None
    state_index = labels.index("sync_state")
    totals: Dict[str, int] = {}
    for key, slot in entry.get("series", {}).items():
        parts = key.split("|")
        state = parts[state_index] if state_index < len(parts) else "?"
        totals[state] = totals.get(state, 0) + int(slot["count"])
    return totals


def _check_latency_accounting(records: List[Dict[str, object]]) -> Optional[str]:
    """The latency ledger: every opened interval closes, and each fact
    about a receiver reads the same in the events and in the registry.

    Returns a summary fragment, or None when the trace has no latency
    story to audit (no receiver was delivered to, late or abandoned).
    """
    counts: Dict[str, int] = {}
    members = 0
    snapshot: Dict[str, object] = {}
    for record in records:
        if record.get("record") == "event":
            counts[record["type"]] = counts.get(record["type"], 0) + 1
            if record["type"] == "epoch_latency":
                members += int(record["members"])
        elif record.get("record") == "metrics":
            snapshot = record.get("snapshot", {})
    abandonments = counts.get("abandonment", 0)
    resyncs = counts.get("resync", 0)
    unrecovered = counts.get("abandoned_unrecovered", 0)
    adopted = counts.get("dek_adopted", 0)
    if not (abandonments or resyncs or unrecovered or adopted or members):
        return None
    if abandonments != resyncs + unrecovered:
        raise ValueError(
            "latency accounting broken: "
            f"{abandonments} abandonment events but "
            f"{resyncs} resync + {unrecovered} abandoned_unrecovered "
            "— some member epoch stories ended silently"
        )

    for counter, event, events in (
        ("sync.out_of_sync", "abandonment", abandonments),
        ("server.catchups", "resync", resyncs),
    ):
        entry = snapshot.get(counter)
        total = sum(entry["series"].values()) if isinstance(entry, dict) else 0
        if total != events:
            raise ValueError(
                f"registry disagrees with the latency ledger: {counter} "
                f"counted {total:g} but the trace has {events} {event} events"
            )
    state_counts = _latency_state_counts(snapshot)
    if state_counts is not None:
        delivered, late = state_counts.get("delivered", 0), state_counts.get("late", 0)
        state_counts["delivered + late"] = delivered + late
        for state, label, expected in (
            ("resync", "resync events", resyncs),
            ("abandoned", "abandoned_unrecovered events", unrecovered),
            ("late", "dek_adopted events", adopted),
            ("delivered + late", "members in epoch_latency events", members),
        ):
            if state_counts.get(state, 0) != expected:
                raise ValueError(
                    "rekey.latency histogram disagrees with trace events: "
                    f"{state} series count {state_counts.get(state, 0)} vs "
                    f"{expected} {label}"
                )
    return (
        f"latency ledger closed ({abandonments} abandoned = "
        f"{resyncs} resynced + {unrecovered} unrecovered; "
        f"{members} multicast adoptions, {adopted} late)"
    )


def _check_chrome(chrome_path: Path, span_records: int) -> str:
    """Validate an exported Chrome trace and tie it back to the source."""
    from repro.obs.chrometrace import validate_chrome_trace

    with chrome_path.open(encoding="utf-8") as handle:
        doc = json.load(handle)
    counts = validate_chrome_trace(doc)
    complete = counts.get("X", 0)
    if complete != span_records:
        raise ValueError(
            f"chrome trace has {complete} complete events but the source "
            f"trace has {span_records} spans"
        )
    return f"chrome trace ok ({complete} complete events)"


def check(
    trace_path: Path,
    metrics_path: Path,
    chrome_path: Optional[Path] = None,
) -> str:
    """Run all checks; returns the summary line, raises ValueError on failure."""
    records = read_trace(trace_path)
    counts = validate_trace_records(records)

    exposition = metrics_path.read_text(encoding="utf-8")
    samples = parse_prometheus(exposition)
    histograms = check_histograms(samples)
    prom_epochs = samples.get("repro_server_rekeys_total")
    if prom_epochs is None:
        raise ValueError("exposition has no repro_server_rekeys_total sample")

    booked = [
        (record["epoch"], record.get("time"))
        for record in records
        if record.get("record") == "event" and record.get("type") == "epoch"
    ]
    twice = [now for before, now in zip(booked, booked[1:]) if now == before]
    if twice:
        raise ValueError(
            f"epoch {twice[0][0]} at t={twice[0][1]} booked twice "
            f"({len(twice)} epoch events repeat the one before them)"
        )
    epoch_events = len(booked)

    snapshot_epochs: Optional[float] = None
    for record in records:
        if record.get("record") == "metrics":
            entry = record["snapshot"].get("server.rekeys")
            if entry:
                snapshot_epochs = sum(entry["series"].values())
    if snapshot_epochs is None:
        raise ValueError("trace metrics snapshot has no server.rekeys counter")

    if not (prom_epochs == epoch_events == snapshot_epochs):
        raise ValueError(
            "epoch counts disagree: "
            f"exposition={prom_epochs}, trace events={epoch_events}, "
            f"trace snapshot={snapshot_epochs}"
        )

    extras: List[str] = [f"{histograms} histogram series whole"]
    latency_line = _check_latency_accounting(records)
    if latency_line is not None:
        extras.append(latency_line)
    if chrome_path is not None:
        extras.append(_check_chrome(chrome_path, counts["span"]))

    line = (
        f"ok: {counts['span']} spans, {counts['event']} events, "
        f"{int(prom_epochs)} epochs (exposition == trace events == snapshot)"
    )
    for extra in extras:
        line += f"; {extra}"
    return line


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.check", description=__doc__
    )
    parser.add_argument("trace", type=Path, help="JSONL trace file (--trace output)")
    parser.add_argument("metrics", type=Path, help="Prometheus exposition (--metrics output)")
    parser.add_argument(
        "--chrome",
        type=Path,
        default=None,
        help="exported Chrome trace JSON to validate against the trace",
    )
    args = parser.parse_args(argv)
    try:
        print(check(args.trace, args.metrics, chrome_path=args.chrome))
    except (ValueError, OSError) as exc:
        print(f"obs check failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
