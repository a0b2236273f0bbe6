"""End-to-end observability: one registry feeds every layer.

The acceptance contract of the obs layer:

* an observed simulation produces agreeing epoch counts across all three
  signal planes (metrics counter, epoch events, epoch spans);
* every partition a batch touches reports a ``shard`` span and the
  ``shard.*`` histograms under its breakdown label, whatever the policy;
* a chaos run's trace carries fault-window span events and retry-round
  spans;
* the whole artifact chain (``write_trace`` + ``write_metrics`` +
  ``repro.obs.check``) closes over itself.
"""

import pytest

import repro.obs as obs
from repro.cli import SCHEMES
from repro.members.durations import TwoClassDuration
from repro.members.population import LossPopulation
from repro.obs import check as obs_check
from repro.obs import metrics as obs_metrics
from repro.server.losshomog import LossHomogenizedServer
from repro.server.onetree import OneTreeServer
from repro.server.twopartition import TwoPartitionServer
from repro.sim.simulation import GroupRekeyingSimulation, SimulationConfig

from tests.helpers import THREE_CLASS_RATES, three_class_population, three_tree_server


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
    joined = 0

    def join(member_id):
        nonlocal joined
        rate = {"loss_rate": THREE_CLASS_RATES[joined % len(THREE_CLASS_RATES)]}
        server.join(
            member_id, **{k: v for k, v in rate.items() if k in server.join_attributes}
        )
        joined += 1

    members = [f"m{i}" for i in range(width)]
    for member_id in members:
        join(member_id)
    total_keys += len(server.rekey().encrypted_keys)
    for round_no in range(rounds):
        for i in range(4):
            server.leave(members[round_no * 4 + i])
        joiners = [f"j{round_no}_{i}" for i in range(4)]
        for member_id in joiners:
            join(member_id)
        members.extend(joiners)
        total_keys += len(server.rekey().encrypted_keys)
    return total_keys


def unwrap_totals(server, population=None):
    """Wrap/unwrap counters of one observed lossy run."""
    from repro.transport.wka_bkr import WkaBkrProtocol

    with obs_metrics.collecting() as registry:
        GroupRekeyingSimulation(
            server,
            small_config(
                transport=WkaBkrProtocol(keys_per_packet=16),
                loss_population=population or LossPopulation.two_point(),
            ),
        ).run()
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
    served is the protocol's decryption count — under any policy."""
    for server, population in (
        (OneTreeServer(degree=4), None),
        (three_tree_server(degree=4), three_class_population()),
        (TwoPartitionServer(mode="tt", s_period=120.0), None),
    ):
        totals = unwrap_totals(server, population)
        assert totals["member.unwraps_shared"] > totals["crypto.unwraps"] > 0
        assert totals["crypto.unwraps"] <= totals["crypto.wraps"]
        assert totals["member.keys_learned"] == (
            totals["crypto.unwraps"] + totals["member.unwraps_shared"]
        )


def test_three_tree_shard_spans_and_labeled_metrics():
    with obs.observe() as bundle:
        churn(three_tree_server(degree=4), rounds=2)
    shard_spans = [s for s in bundle.tracer.spans if s.name == "shard"]
    assert shard_spans
    labels = {"tree-p0.2", "tree-p0.1", "tree-p0.02"}
    assert {s.attributes["shard"] for s in shard_spans} == labels
    hist = bundle.registry.histogram("shard.batch_keys", labels=("shard",))
    assert sum(hist.stats(shard=label)["count"] for label in labels) == len(
        shard_spans
    )


@pytest.mark.parametrize(
    "build,labels",
    [
        (lambda: OneTreeServer(degree=4), {"tree"}),
        (lambda: TwoPartitionServer(mode="qt", s_period=0.0), {"s-partition", "l-partition"}),
        (lambda: TwoPartitionServer(mode="tt", s_period=0.0), {"s-partition", "l-partition"}),
        (
            lambda: LossHomogenizedServer(placement="random"),
            {"tree-p0.2", "tree-p0.02"},
        ),
    ],
    ids=["one-keytree", "qt", "tt", "loss-random"],
)
def test_every_policy_reports_its_touched_partitions(build, labels):
    """One loop, one instrumentation point: a span and both histograms per
    partition a batch touches, keys summing to what the breakdown says."""
    with obs.observe() as bundle:
        server = build()
        results = []
        for member_id in [f"m{i}" for i in range(16)]:
            server.join(member_id)
        results.append(server.rekey(now=0.0))
        server.leave("m3", at_time=30.0)
        server.join("late", at_time=30.0)
        results.append(server.rekey(now=60.0))
    spans = [s for s in bundle.tracer.spans if s.name == "shard"]
    assert {s.attributes["shard"] for s in spans} == labels
    rekeys = {s.span_id for s in bundle.tracer.spans if s.name == "rekey"}
    assert all(s.parent_id in rekeys for s in spans)
    keys = bundle.registry.histogram("shard.batch_keys", labels=("shard",))
    seconds = bundle.registry.histogram("shard.batch_seconds", labels=("shard",))
    for label in labels:
        attributed = sum(r.breakdown.get(label, 0) for r in results)
        assert keys.stats(shard=label)["sum"] == attributed
        assert seconds.stats(shard=label)["count"] == keys.stats(shard=label)["count"]


def test_no_partition_is_timed_while_nothing_observes():
    from unittest import mock

    from repro.server import partitioned

    with mock.patch.object(
        partitioned, "perf_counter", wraps=partitioned.perf_counter
    ) as clock:
        churn(three_tree_server(degree=4), rounds=1)
        assert clock.call_count == 0
        with obs.observe():
            churn(three_tree_server(degree=4), rounds=1)
        assert clock.call_count > 0


def test_every_rekey_is_timed_only_while_a_registry_listens():
    from unittest import mock

    from repro.server import partitioned

    with mock.patch.object(
        partitioned, "perf_counter", wraps=partitioned.perf_counter
    ) as clock:
        churn(OneTreeServer(), rounds=2)
        assert clock.call_count == 0
        with obs_metrics.collecting() as registry:
            churn(OneTreeServer(), rounds=2)
    seconds = registry.histogram(
        "server.rekey.seconds", buckets=obs_metrics.LATENCY_BUCKETS_S
    ).stats()
    assert seconds["count"] == registry.counter_total("server.rekeys") == 3
    # Two reads per rekey, and two per partition it touched (the same
    # module times both).
    partitions = registry.histogram(
        "shard.batch_seconds", buckets=obs_metrics.LATENCY_BUCKETS_S, labels=("shard",)
    ).stats(shard="tree")
    assert clock.call_count == 2 * (seconds["count"] + partitions["count"])


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


def test_ledger_check_ties_the_sync_counters_to_the_latency_events(tmp_path):
    """Each copy of a receiver story must agree with its events: one copy
    drifting (a registry counter, a late adoption, an epoch's member
    count) fails the check."""
    import json

    from repro.faults.chaos import run_chaos_case

    with obs.observe() as bundle:
        report = run_chaos_case("one", "blackout-resync", seed=7, horizon=900.0)
    trace = tmp_path / "trace.jsonl"
    prom = tmp_path / "metrics.prom"
    obs.write_trace(bundle, trace)
    obs.write_metrics(bundle.registry, prom)
    assert report["abandoned"] > 0 and report["recoveries"]["count"] > 0
    assert "latency ledger closed" in obs_check.check(trace, prom)

    records = obs.read_trace(trace)

    def bump(counter):
        series = tampered[-1]["snapshot"][counter]["series"]
        series[next(iter(series))] += 1

    def first(kind):
        return next(r for r in tampered if r.get("type") == kind)

    for tamper, message in (
        (lambda: bump("sync.out_of_sync"), "registry disagrees.*sync.out_of_sync"),
        (lambda: bump("server.catchups"), "registry disagrees.*server.catchups"),
        (lambda: tampered.remove(first("dek_adopted")), "late series count"),
        (lambda: first("epoch_latency").update(members=0), r"delivered \+ late"),
    ):
        tampered = json.loads(json.dumps(records))
        tamper()
        bad = tmp_path / "tampered.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in tampered))
        with pytest.raises(ValueError, match=message):
            obs_check.check(bad, prom)


class TestBatchObservesAgainstSingleObserves:
    """The receiver pass feeds ``receiver.interest_keys`` and
    ``rekey.latency`` one batch per series per epoch.  An observed run
    must record the same snapshot as one whose batch entry point loops
    single observes, for every scheme, over both repair transports, with
    receivers abandoned and recovered."""

    #: Histograms of wall-clock seconds: only their counts can agree.
    WALL_CLOCK = ("server.rekey.seconds", "shard.batch_seconds")

    @classmethod
    def snapshot(cls, scheme, transport):
        from repro.faults.retry import RetryPolicy
        from repro.faults.schedule import Blackout, ChurnStorm, FaultSchedule
        from repro.server import build_server
        from repro.transport.fec import ProactiveFecProtocol
        from repro.transport.wka_bkr import WkaBkrProtocol

        retry = RetryPolicy(max_rounds=8, abandon_after=3)
        protocol = (
            WkaBkrProtocol(keys_per_packet=8, retry=retry)
            if transport == "wka-bkr"
            else ProactiveFecProtocol(keys_per_packet=4, block_size=4, retry=retry)
        )
        schedule = FaultSchedule.of(
            [
                ChurnStorm(at_time=0.0, joins=30),
                Blackout(start=110.0, duration=20.0, fraction=0.3),
            ],
            name="blackout",
        )
        config = small_config(
            arrival_rate=0.1,
            horizon=300.0,
            transport=protocol,
            loss_population=LossPopulation.two_point(),
            fault_schedule=schedule,
            recovery_delay=30.0,
            verify=True,
        )
        with obs.observe() as bundle:
            GroupRekeyingSimulation(build_server(scheme, s_period=120.0), config).run()
        snapshot = bundle.registry.to_json()
        for name in cls.WALL_CLOCK:
            for key, slot in snapshot.get(name, {}).get("series", {}).items():
                snapshot[name]["series"][key] = slot["count"]
        return snapshot

    @pytest.mark.parametrize("transport", ["wka-bkr", "fec"])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_same_snapshot_as_single_observes(self, scheme, transport, monkeypatch):
        batched = self.snapshot(scheme, transport)
        batch = obs_metrics.MetricsRegistry.observe_many

        def single_observes(self, name, values, buckets=obs_metrics.SIZE_BUCKETS, **labels):
            for value in values:
                batch(self, name, (value,), buckets, **labels)

        monkeypatch.setattr(obs_metrics.MetricsRegistry, "observe_many", single_observes)
        assert self.snapshot(scheme, transport) == batched
        states = {key.split("|")[2] for key in batched["rekey.latency"]["series"]}
        assert {"delivered", "resync"} <= states, states
        assert "receiver.keys_learned" not in batched
        assert batched["receiver.interest_keys"]["series"][""]["count"] > 0
