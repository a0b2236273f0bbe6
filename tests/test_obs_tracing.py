"""Span tracer: nesting, dual clocks, null path, thread-local stacks."""

import threading

from repro.obs import tracing


def test_nested_spans_parent_correctly():
    tracer = tracing.Tracer()
    with tracer.span("epoch") as epoch:
        with tracer.span("rekey") as rekey:
            with tracer.span("mark") as mark:
                pass
    assert mark.parent_id == rekey.span_id
    assert rekey.parent_id == epoch.span_id
    assert epoch.parent_id is None
    # Completion order: children finish before parents.
    assert [s.name for s in tracer.spans] == ["mark", "rekey", "epoch"]


def test_span_carries_attributes_and_events():
    tracer = tracing.Tracer(clock=lambda: 42.0)
    with tracer.span("epoch", seed=7) as span:
        span.set("cost", 12)
        span.event("fault-window", kind="blackout", start=10.0, end=20.0)
    record = span.to_record()
    assert record["record"] == "span"
    assert record["attributes"] == {"seed": 7, "cost": 12}
    assert record["sim_start"] == 42.0
    assert record["events"][0]["name"] == "fault-window"
    assert record["events"][0]["sim_time"] == 42.0
    assert record["events"][0]["attributes"]["kind"] == "blackout"


def test_sim_clock_rebinding():
    now = {"t": 0.0}
    tracer = tracing.Tracer()
    assert tracer.sim_now() is None
    tracer.bind_clock(lambda: now["t"])
    with tracer.span("epoch") as span:
        now["t"] = 60.0
    assert span.sim_start == 0.0
    assert span.sim_end == 60.0


def test_add_span_records_external_duration():
    tracer = tracing.Tracer()
    with tracer.span("rekey"):
        tracer.add_span("shard", wall_s=0.25, shard=3, keys=40)
    shard = next(s for s in tracer.spans if s.name == "shard")
    assert abs(shard.duration_s - 0.25) < 1e-9
    assert shard.attributes == {"shard": 3, "keys": 40}
    assert shard.parent_id is not None


def test_module_probes_disabled_are_null():
    assert tracing.active_tracer() is None
    ctx = tracing.span("anything")
    with ctx as span:
        span.set("ignored", 1)
        span.event("ignored")
    tracing.event("ignored")
    tracing.add_span("ignored", wall_s=1.0)
    tracing.set_attr("ignored", 1)
    # The null context is a shared singleton: no per-call allocation.
    assert tracing.span("a") is tracing.span("b")


def test_tracing_context_installs_and_restores():
    with tracing.tracing() as tracer:
        assert tracing.active_tracer() is tracer
        with tracing.span("epoch"):
            tracing.set_attr("epoch", 3)
            tracing.event("server-crash", epoch=3)
    assert tracing.active_tracer() is None
    (span,) = tracer.spans
    assert span.attributes["epoch"] == 3
    assert span.events[0].name == "server-crash"


def test_span_stack_is_thread_local():
    tracer = tracing.Tracer()
    seen = {}

    def worker():
        # A fresh thread sees no current span from the main thread and
        # its spans parent at its own root, not under "main".
        seen["current"] = tracer.current()
        with tracer.span("thread-job") as sp:
            seen["parent"] = sp.parent_id

    with tracer.span("main"):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
    assert seen["current"] is None
    assert seen["parent"] is None
