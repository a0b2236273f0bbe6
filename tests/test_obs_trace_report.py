"""Trace file round-trip, validation, and the summarizer."""

import json

import pytest

import repro.obs as obs
from repro.obs import metrics
from repro.obs.report import build_summary, format_summary


def observed_run():
    """A tiny synthetic observed run with every record kind."""
    with obs.observe(clock=lambda: 7.0) as bundle:
        with bundle.tracer.span("epoch", epoch=1) as epoch:
            epoch.event("fault-window", kind="blackout", start=0.0, end=10.0)
            with bundle.tracer.span("rekey"):
                pass
            bundle.tracer.add_span("shard", wall_s=0.4, shard=0, keys=30)
            bundle.tracer.add_span("shard", wall_s=0.1, shard=1, keys=10)
        bundle.events.emit("epoch", epoch=1, joins=2, departures=1, cost=12)
        bundle.registry.observe("server.batch_cost", 12)
        bundle.registry.observe("epoch.group_size", 100)
        bundle.registry.observe("epoch.departures", 1)
        bundle.registry.observe("receiver.interest_keys", 3)
        bundle.registry.inc("member.keys_learned", 3)
        bundle.registry.inc("member.unwraps_shared", 2)
        bundle.registry.set_gauge("server.degree", 4)
    return bundle


def test_write_read_validate_roundtrip(tmp_path):
    bundle = observed_run()
    path = tmp_path / "trace.jsonl"
    count = obs.write_trace(bundle, path)
    records = obs.read_trace(path)
    assert len(records) == count
    counts = obs.validate_trace_records(records)
    assert counts == {"header": 1, "span": 4, "event": 1, "metrics": 1}
    # JSONL: every line parses standalone.
    for line in path.read_text().splitlines():
        json.loads(line)


def test_write_trace_is_atomic(tmp_path):
    bundle = observed_run()
    path = tmp_path / "trace.jsonl"
    obs.write_trace(bundle, path)
    assert not list(tmp_path.glob("*.tmp"))


def test_validate_rejects_bad_header_and_unknown_kind(tmp_path):
    with pytest.raises(ValueError, match="header"):
        obs.validate_trace_records([{"record": "span"}])
    good_header = {"record": "header", "schema": 3, "kind": "repro-trace"}
    with pytest.raises(ValueError, match="unknown record kind"):
        obs.validate_trace_records([good_header, {"record": "mystery"}])
    with pytest.raises(ValueError, match="schema"):
        obs.validate_trace_records(
            [{"record": "header", "schema": 99, "kind": "repro-trace"}]
        )


def test_schema_1_traces_are_unsupported():
    # Only the current schema is read: 2 booked receiver stories twice.
    for schema in (1, 2, 99):
        with pytest.raises(ValueError, match="unsupported trace schema"):
            obs.validate_trace_records(
                [{"record": "header", "schema": schema, "kind": "repro-trace"}]
            )


def test_summary_reports_spans_shards_and_analytic(tmp_path):
    bundle = observed_run()
    path = tmp_path / "trace.jsonl"
    obs.write_trace(bundle, path)
    summary = build_summary(obs.read_trace(path))

    assert summary["spans"] == 4
    assert summary["events"] == {"epoch": 1}
    names = [row["name"] for row in summary["top_spans"]]
    assert "epoch" in names and "shard" in names

    shard_rows = {row["shard"]: row for row in summary["shards"]}
    assert shard_rows["0"]["keys"] == 30
    assert shard_rows["1"]["keys"] == 10
    # shard 0 did 0.4s of 0.25s mean -> imbalance 1.6
    assert summary["shard_imbalance"] == pytest.approx(1.6, abs=0.01)

    assert summary["receiver"]["deliveries"] == 1
    assert summary["receiver"]["mean_interest_keys_per_delivery"] == 3
    assert "mean_decrypts_per_delivery" not in summary["receiver"]
    assert summary["receiver"]["shared_unwrap_share"] == 0.667

    analytic = summary["analytic"]
    assert analytic["degree"] == 4
    assert analytic["observed_mean_batch_cost"] == 12
    assert analytic["predicted_ne"] > 0

    text = format_summary(summary)
    assert "top spans" in text
    assert "imbalance" in text
    assert "Ne(N, L)" in text
    assert "served from table:   66.7% of decrypts" in text


def test_summary_top_limit():
    records = [{"record": "header", "schema": 3, "kind": "repro-trace"}]
    for i in range(20):
        records.append(
            {
                "record": "span",
                "span_id": i + 1,
                "parent_id": None,
                "name": f"s{i}",
                "wall_s": 0.001 * (i + 1),
                "sim_start": None,
                "sim_end": None,
                "attributes": {},
                "events": [],
            }
        )
    summary = build_summary(records, top=5)
    assert len(summary["top_spans"]) == 5
    # Sorted by total wall time descending.
    assert summary["top_spans"][0]["name"] == "s19"


def test_summary_of_an_empty_latency_histogram():
    """A registered ``rekey.latency`` with no adoptions reports a zero
    count and no quantiles (its series merge to no buckets at all)."""
    registry = metrics.MetricsRegistry()
    registry.histogram("rekey.latency", buckets=metrics.LATENCY_LOG_BUCKETS_S)
    records = [
        {"record": "header", "schema": 3, "kind": "repro-trace"},
        {"record": "metrics", "snapshot": registry.to_json()},
    ]
    summary = build_summary(records)
    assert summary["latency"]["overall"] == {
        "count": 0,
        "p50_s": None,
        "p95_s": None,
        "p99_s": None,
    }
    assert "rekey latency (time-to-new-DEK)" in format_summary(summary)
