"""Chrome trace-event export (Perfetto) from repro trace files."""

import json
import math

import pytest

import repro.obs as obs
from repro.obs.chrometrace import (
    TRACE_PID,
    export_chrome_trace,
    validate_chrome_trace,
)


def observed_records(tmp_path):
    with obs.observe(clock=lambda: 7.0) as bundle:
        with bundle.tracer.span("epoch", epoch=1) as epoch:
            epoch.event("fault-window", kind="blackout", start=0.0, end=10.0)
            with bundle.tracer.span("rekey"):
                with bundle.tracer.span("wrap"):
                    pass
            bundle.tracer.add_span("shard", wall_s=0.001, shard=0, keys=30)
        bundle.events.emit("epoch", epoch=1, joins=2, departures=1, cost=12)
    path = tmp_path / "trace.jsonl"
    obs.write_trace(bundle, path)
    return obs.read_trace(path)


class TestExport:
    def test_observed_run_exports_and_validates(self, tmp_path):
        records = observed_records(tmp_path)
        out = tmp_path / "trace.chrome.json"
        doc = export_chrome_trace(records, out)
        counts = validate_chrome_trace(doc)
        spans = [r for r in records if r.get("record") == "span"]
        assert counts["X"] == len(spans) == 4
        assert counts["i"] == 1  # the fault window
        assert counts["M"] >= 2  # process name + at least one thread
        # The file on disk is strict JSON (no NaN/Infinity literals).
        reloaded = json.loads(out.read_text(encoding="utf-8"))
        assert validate_chrome_trace(reloaded) == counts
        assert reloaded["otherData"]["trace_schema"] == obs.TRACE_SCHEMA_VERSION

    def test_nested_spans_share_a_track(self, tmp_path):
        records = observed_records(tmp_path)
        doc = export_chrome_trace(records)
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        by_name = {e["name"]: e for e in complete}
        # rekey nests inside epoch: same track, contained interval.
        epoch, rekey = by_name["epoch"], by_name["rekey"]
        assert rekey["ts"] >= epoch["ts"]
        assert rekey["ts"] + rekey["dur"] <= epoch["ts"] + epoch["dur"]
        assert all(e["pid"] == TRACE_PID for e in complete)

    def test_instants_are_clamped_into_their_span(self, tmp_path):
        records = observed_records(tmp_path)
        doc = export_chrome_trace(records)
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        spans = {
            (e["tid"], e["ts"], e["ts"] + e["dur"])
            for e in doc["traceEvents"]
            if e["ph"] == "X"
        }
        for instant in instants:
            assert instant["s"] == "t"
            assert any(
                tid == instant["tid"] and start <= instant["ts"] <= end
                for tid, start, end in spans
            )


class TestSanitization:
    def test_nan_duration_becomes_finite(self, tmp_path):
        records = [
            {"record": "header", "schema": 3, "kind": "repro-trace"},
            {"record": "span", "span_id": 1, "parent_id": None, "name": "bad",
             "wall_s": float("nan"), "wall_start_s": float("nan"),
             "events": [], "attributes": {}},
        ]
        out = tmp_path / "nan.chrome.json"
        doc = export_chrome_trace(records, out)
        validate_chrome_trace(doc)
        for event in doc["traceEvents"]:
            for field in ("ts", "dur"):
                if field in event:
                    assert math.isfinite(event[field])
        # json.dump(allow_nan=False) would have raised otherwise; the
        # written file reparses with strict parsing.
        json.loads(out.read_text(encoding="utf-8"), parse_constant=lambda _: 1 / 0)

    def test_validator_rejects_nan_and_backwards_ts(self):
        base = {"name": "x", "ph": "X", "pid": 1, "tid": 0, "args": {}}
        with pytest.raises(ValueError, match="finite"):
            validate_chrome_trace(
                {"traceEvents": [{**base, "ts": float("nan"), "dur": 1}]}
            )
        with pytest.raises(ValueError, match="backwards"):
            validate_chrome_trace(
                {"traceEvents": [
                    {**base, "ts": 10, "dur": 1},
                    {**base, "ts": 5, "dur": 1},
                ]}
            )
        with pytest.raises(ValueError, match="unknown phase"):
            validate_chrome_trace(
                {"traceEvents": [{**base, "ph": "B", "ts": 0, "dur": 0}]}
            )
