"""End-to-end observability: one registry feeds every layer.

The acceptance contract of the obs layer:

* an observed simulation produces agreeing epoch counts across all three
  signal planes (metrics counter, epoch events, epoch spans);
* a sharded ``workers=4`` process-backend run merges its workers' metric
  deltas so the counted totals (rekeys, wraps, encrypted keys) are
  identical to the serial backend's;
* a chaos run's trace carries fault-window span events and retry-round
  spans;
* the whole artifact chain (``write_trace`` + ``write_metrics`` +
  ``repro.obs.check``) closes over itself.
"""

import pytest

import repro.obs as obs
from repro.members.durations import TwoClassDuration
from repro.members.population import LossPopulation
from repro.obs import check as obs_check
from repro.obs import metrics as obs_metrics
from repro.server.onetree import OneTreeServer
from repro.server.sharded import ShardedOneTreeServer
from repro.sim.simulation import GroupRekeyingSimulation, SimulationConfig


def small_config(**overrides):
    defaults = dict(
        arrival_rate=0.8,
        rekey_period=60.0,
        horizon=600.0,
        duration_model=TwoClassDuration(),
        verify=False,
        seed=3,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def test_observed_simulation_epoch_counts_agree():
    with obs.observe() as bundle:
        metrics = GroupRekeyingSimulation(
            OneTreeServer(degree=4), small_config()
        ).run()

    epochs = metrics.rekey_count
    assert epochs > 0
    assert bundle.registry.counter_total("server.rekeys") == epochs
    assert bundle.events.count("epoch") == epochs
    epoch_spans = [s for s in bundle.tracer.spans if s.name == "epoch"]
    assert len(epoch_spans) == epochs
    # Spans carry simulated time bound by the simulation's clock.
    assert all(s.sim_start is not None for s in epoch_spans)
    # The LKH phases appear under every rekey.
    for phase in ("mark", "generate", "wrap"):
        assert any(s.name == phase for s in bundle.tracer.spans)
    # The batch-cost histogram saw one observation per epoch.
    hist = bundle.registry.histogram("server.batch_cost")
    assert hist.stats()["count"] == epochs
    # The shim keeps feeding events through joins/departures too.
    assert bundle.events.count("join") >= metrics.joins_total


def churn(server, rounds=4, width=32):
    """Deterministic churn against a server; returns encrypted-key total."""
    total_keys = 0
    members = [f"m{i}" for i in range(width)]
    for member_id in members:
        server.join(member_id)
    total_keys += len(server.rekey().encrypted_keys)
    for round_no in range(rounds):
        for i in range(4):
            server.leave(members[round_no * 4 + i])
        joiners = [f"j{round_no}_{i}" for i in range(4)]
        for member_id in joiners:
            server.join(member_id)
        members.extend(joiners)
        total_keys += len(server.rekey().encrypted_keys)
    return total_keys


@pytest.mark.parametrize("backend,workers", [("thread", 4), ("process", 4)])
def test_sharded_workers_merge_matches_serial_totals(backend, workers):
    totals = {}
    for label, kwargs in (
        ("serial", dict(backend="serial", workers=1)),
        (backend, dict(backend=backend, workers=workers)),
    ):
        with obs_metrics.collecting() as registry:
            server = ShardedOneTreeServer(shards=4, degree=4, **kwargs)
            wire_keys = churn(server)
            server.close()
        totals[label] = {
            "rekeys": registry.counter_total("server.rekeys"),
            "wraps": registry.counter_total("crypto.wraps"),
            "encrypted_keys": registry.counter_total("server.encrypted_keys"),
            "wire_keys": wire_keys,
        }
    assert totals["serial"]["rekeys"] == 5
    assert totals["serial"]["wraps"] > 0
    assert totals["serial"]["encrypted_keys"] == totals["serial"]["wire_keys"]
    assert totals[backend] == totals["serial"]


def unwrap_totals(server):
    """Wrap/unwrap counters of one observed lossy run; closes the server."""
    from repro.transport.wka_bkr import WkaBkrProtocol

    with obs_metrics.collecting() as registry:
        GroupRekeyingSimulation(
            server,
            small_config(
                transport=WkaBkrProtocol(keys_per_packet=16),
                loss_population=LossPopulation.two_point(),
            ),
        ).run()
        if isinstance(server, ShardedOneTreeServer):
            server.close()
    return {
        name: registry.counter_total(name)
        for name in (
            "crypto.wraps",
            "crypto.unwraps",
            "member.keys_learned",
            "member.unwraps_shared",
        )
    }


def test_every_learned_key_is_one_real_or_one_shared_unwrap():
    """Receivers of a payload share its opened-wrap table: each wrap is
    decrypted at most once, and what the cipher ran plus what the table
    served is the protocol's decryption count — on any backend."""
    one = unwrap_totals(OneTreeServer(degree=4))
    serial = unwrap_totals(
        ShardedOneTreeServer(shards=4, degree=4, backend="serial", workers=1)
    )
    pooled = unwrap_totals(
        ShardedOneTreeServer(shards=4, degree=4, backend="process", workers=4)
    )
    assert pooled == serial
    for totals in (one, serial):
        assert totals["member.unwraps_shared"] > totals["crypto.unwraps"] > 0
        assert totals["crypto.unwraps"] <= totals["crypto.wraps"]
        assert totals["member.keys_learned"] == (
            totals["crypto.unwraps"] + totals["member.unwraps_shared"]
        )


def test_sharded_shard_spans_and_labeled_metrics():
    with obs.observe() as bundle:
        server = ShardedOneTreeServer(shards=4, degree=4)
        churn(server, rounds=2)
        server.close()
    shard_spans = [s for s in bundle.tracer.spans if s.name == "shard"]
    assert shard_spans
    shards_seen = {s.attributes["shard"] for s in shard_spans}
    assert shards_seen == {0, 1, 2, 3}
    hist = bundle.registry.histogram(
        "shard.batch_keys", labels=("shard",)
    )
    assert sum(hist.stats(shard=str(i))["count"] for i in range(4)) == len(
        shard_spans
    )


def test_chaos_trace_has_fault_windows_and_retry_rounds():
    from repro.faults.chaos import run_chaos_case

    with obs.observe() as bundle:
        report = run_chaos_case(
            "one", "blackout-resync", seed=7, horizon=900.0
        )
    assert report["rekeyings"] > 0
    fault_windows = [
        evt
        for span in bundle.tracer.spans
        for evt in span.events
        if evt.name == "fault-window"
    ]
    assert fault_windows, "no fault-window span events in a blackout run"
    retry_spans = [
        s
        for s in bundle.tracer.spans
        if s.name == "transport.round" and s.attributes.get("round", 0) > 0
    ]
    assert retry_spans, "no retry-round spans in a blackout run"
    assert bundle.events.count("retry_round") == len(retry_spans)
    # Abandonment/resync paths produce their events too.
    assert bundle.events.count("abandonment") == report["abandoned"]
    assert (
        bundle.events.count("resync")
        == report["recoveries"].get("count", 0)
    )


def test_artifact_chain_closes(tmp_path):
    from repro.transport.wka_bkr import WkaBkrProtocol

    with obs.observe() as bundle:
        GroupRekeyingSimulation(
            OneTreeServer(degree=4),
            small_config(
                transport=WkaBkrProtocol(keys_per_packet=16),
                loss_population=LossPopulation.two_point(),
            ),
        ).run()
    trace = tmp_path / "trace.jsonl"
    prom = tmp_path / "metrics.prom"
    obs.write_trace(bundle, trace)
    obs.write_metrics(bundle.registry, prom)
    line = obs_check.check(trace, prom)
    assert line.startswith("ok:")
    assert obs_check.main([str(trace), str(prom)]) == 0
