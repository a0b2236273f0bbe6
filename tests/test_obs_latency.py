"""Member-level time-to-new-DEK accounting (repro.obs.latency)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.faults.recovery import RecoveryEvent
from repro.members.durations import TwoClassDuration
from repro.members.population import LossPopulation
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs.latency import LATENCY_METRIC, LatencyTracker, exact_percentile
from repro.obs.metrics import (
    LATENCY_LOG_BUCKETS_S,
    MetricsRegistry,
    bucket_quantile,
    merge_bucket_series,
)
from repro.server.losshomog import LossHomogenizedServer
from repro.server.onetree import OneTreeServer
from repro.server.twopartition import TwoPartitionServer
from repro.sim.simulation import GroupRekeyingSimulation, SimulationConfig
from repro.transport.wka_bkr import WkaBkrProtocol

from tests.helpers import three_class_population, three_tree_server


class TestExactPercentile:
    def test_empty_is_zero(self):
        assert exact_percentile(0, [], 0.5) == 0.0

    def test_all_zeros(self):
        assert exact_percentile(10, [], 0.99) == 0.0

    def test_rank_falls_in_zeros(self):
        # 9 zeros + one 30s straggler: p50 is still 0, p99 is the tail.
        assert exact_percentile(9, [30.0], 0.50) == 0.0
        assert exact_percentile(9, [30.0], 0.99) == 30.0

    def test_exact_rank_convention(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert exact_percentile(0, values, 0.50) == 2.0
        assert exact_percentile(0, values, 0.75) == 3.0
        assert exact_percentile(0, values, 1.00) == 4.0


class TestBucketQuantile:
    def test_empty(self):
        assert bucket_quantile([1.0, 2.0], [0, 0, 0], 0.5) is None

    def test_returns_bucket_upper_bound(self):
        bounds = [1.0, 2.0, 4.0]
        counts = [5, 3, 2, 0]  # + overflow
        assert bucket_quantile(bounds, counts, 0.50) == 1.0
        assert bucket_quantile(bounds, counts, 0.90) == 4.0

    def test_overflow_rank_is_none(self):
        assert bucket_quantile([1.0], [1, 9], 0.99) is None

    def test_merge_bucket_series(self):
        merged = merge_bucket_series(
            [
                {"buckets": [1, 0, 2], "sum": 5.0, "count": 3},
                {"buckets": [0, 4, 1], "sum": 9.0, "count": 5},
            ]
        )
        assert merged == {"buckets": [1, 4, 3], "sum": 14.0, "count": 8}


def recovery(member_id, epoch, desynced_at, recovered_at):
    """The :class:`RecoveryEvent` a catch-up returns for that interval."""
    return RecoveryEvent(
        member_id, epoch=epoch, desynced_at=desynced_at,
        recovered_at=recovered_at, epochs_missed=1, keys_sent=1,
    )


class TestLatencyTracker:
    def test_round0_deliveries_are_zero_latency(self):
        tracker = LatencyTracker(scheme="one")
        for i in range(4):
            tracker.observe_delivery(f"m{i}", epoch=1, latency=0.0)
        tracker.observe_delivery("slow", epoch=1, latency=3.5)
        stats = tracker.epoch_percentiles(1)
        assert stats["members"] == 5
        assert stats["p50"] == 0.0
        assert stats["p99"] == 3.5
        assert stats["max"] == 3.5

    def test_resync_closes_the_open_interval(self):
        tracker = LatencyTracker(scheme="one")
        # Out of sync since t=100 s, epoch 2; recovered at t=160 s.
        tracker.observe_recovery(recovery("m", 2, 100.0, 160.0))
        assert tracker.summary()["resyncs"] == 1
        # The interval landed in its opening epoch's distribution.
        assert tracker.epoch_percentiles(2)["max"] == 60.0

    def test_abandoned_excluded_from_percentiles(self):
        tracker = LatencyTracker()
        tracker.observe_delivery("a", epoch=1, latency=0.0)
        tracker.close_abandoned("b", (60.0, 1), now=400.0, reason="departed")
        stats = tracker.epoch_percentiles(1)
        assert stats["members"] == 1
        assert stats["max"] == 0.0
        summary = tracker.summary()
        assert summary["abandoned_unrecovered"] == 1
        assert summary["count"] == 1

    def test_finish_closes_leaks(self):
        tracker = LatencyTracker()
        ledger = {"m1": (10.0, 1), "m2": (20.0, 2)}
        assert tracker.finish(ledger.items(), now=100.0) == 2
        summary = tracker.summary()
        assert summary["abandoned_unrecovered"] == 2
        assert summary["open"] == 0
        assert [row["abandoned"] for row in tracker.epoch_rows()] == [1, 1]

    def test_summary_quantiles_and_worst(self):
        tracker = LatencyTracker()
        for i in range(98):
            tracker.observe_delivery(f"m{i}", epoch=1, latency=0.0)
        tracker.observe_delivery("late", epoch=1, latency=5.0)
        tracker.observe_recovery(recovery("worst", 1, 0.0, 90.0))
        summary = tracker.summary()
        assert summary["count"] == 100
        assert summary["p50_s"] == 0.0
        assert summary["p99_s"] == 5.0
        assert summary["max_s"] == 90.0
        assert summary["late"] == 1
        assert summary["resyncs"] == 1
        assert summary["worst"][0] == {
            "member": "worst", "epoch": 1, "latency_s": 90.0, "state": "resync",
        }

    def test_histogram_series_labeled_by_scheme_shard_state(self):
        registry = MetricsRegistry()
        with obs_metrics.collecting(registry):
            tracker = LatencyTracker(
                scheme="loss-homogenized[loss]", shard_fn=lambda m: "2"
            )
            tracker.observe_delivery("a", epoch=1, latency=0.0)
            tracker.observe_delivery("b", epoch=1, latency=1.5)
            tracker.observe_recovery(recovery("c", 1, 0.0, 30.0))
        entry = registry.to_json()[LATENCY_METRIC]
        assert entry["labels"] == ["scheme", "shard", "sync_state"]
        states = {key.split("|")[2] for key in entry["series"]}
        assert states == {"delivered", "late", "resync"}
        assert all(
            key.startswith("loss-homogenized[loss]|2|") for key in entry["series"]
        )

    def test_events_emitted_only_under_an_active_log(self):
        tracker = LatencyTracker()
        # No active log: recording still works, nothing raises.
        tracker.observe_delivery("a", epoch=1, latency=2.0)
        with obs.observe(clock=lambda: 0.0) as bundle:
            tracker.observe_delivery("b", epoch=1, latency=2.0)
            tracker.observe_recovery(recovery("c", 1, 0.0, 9.0))
            tracker.close_abandoned("d", (0.0, 1), now=5.0, reason="departed")
            tracker.epoch_complete(1)
        types = [r["type"] for r in bundle.events.records]
        # One late adoption (never a zero one); the recovery's one event,
        # ``resync``, is the sync tracker's.
        assert types == ["dek_adopted", "abandoned_unrecovered", "epoch_latency"]


def per_member_observe_delivery(tracker, member_id, epoch, latency):
    """Oracle: ``LatencyTracker.observe_delivery`` as it was before an
    epoch's deliveries were recorded in one call, one histogram observe
    per member."""
    slot = tracker._slot(epoch)
    state = "late" if latency > 0.0 else "delivered"
    obs_metrics.observe(
        LATENCY_METRIC,
        max(latency, 0.0),
        LATENCY_LOG_BUCKETS_S,
        scheme=tracker.scheme,
        shard=tracker._shard(member_id),
        sync_state=state,
    )
    if state == "delivered":
        slot.zero += 1
        return
    slot.samples.append((member_id, latency, "late"))
    if obs_events.active_log() is not None:
        obs_events.emit(
            "dek_adopted",
            member_id=member_id,
            epoch=epoch,
            latency=round(latency, 6),
            sync_state="late",
        )


MEMBERS = [f"m{i}" for i in range(12)]
# 0.1, 0.2 and 0.3 do not sum exactly, so a series that adds its
# latencies in another order than the loop shows in ``_sum``.
LATENCY = st.sampled_from([0.0, 0.0, 0.0, 0.1, 0.2, 0.3, 1.5, 4.0, 30.0, 700.0])
EPOCH_DELIVERIES = st.tuples(
    st.integers(0, 4),
    st.lists(st.sampled_from(MEMBERS), unique=True),
    st.dictionaries(st.sampled_from(MEMBERS + ["gone"]), LATENCY),
)


def partition_labels(server):
    """``server.shard_label`` once ``MEMBERS`` are admitted and spread
    over its partitions (loss rates take turns under loss placement)."""
    for i, member_id in enumerate(MEMBERS):
        attributes = {"loss_rate": (0.02, 0.2, 0.1)[i % 3]}
        server.join(member_id, **{
            name: value for name, value in attributes.items()
            if name in server.join_attributes
        })
    server.rekey()
    return server.shard_label


SHARD_FNS = {
    "modulo": lambda: (lambda m: int(m[1:]) % 3),
    "three-trees": lambda: partition_labels(three_tree_server()),
    "losshomog": lambda: partition_labels(LossHomogenizedServer(degree=4)),
}


class TestBatchedDeliveriesAgainstPerMemberLoop:
    """``observe_deliveries`` against a loop of the per-member
    ``observe_delivery`` it replaced, member by member in ``ids`` order,
    with members spread over several ``shard`` labels."""

    @staticmethod
    def record(epochs, batched, shard_fn):
        tracker = LatencyTracker(scheme="s", shard_fn=shard_fn)
        for epoch, ids, completed in epochs:
            if batched:
                late = {rid for rid, latency in completed.items() if latency > 0.0}
                tracker.observe_deliveries(ids, epoch, completed, late)
            else:
                for member_id in ids:
                    per_member_observe_delivery(
                        tracker, member_id, epoch, completed.get(member_id, 0.0)
                    )
            tracker.observe_recovery(recovery(MEMBERS[epoch], epoch, 1.0, 2.0 + epoch))
        return tracker

    @settings(max_examples=150, deadline=None)
    @given(
        shards=st.sampled_from(sorted(SHARD_FNS)),
        epochs=st.lists(EPOCH_DELIVERIES, max_size=6),
    )
    def test_same_reads_metrics_and_events(self, shards, epochs):
        shard_fn = SHARD_FNS[shards]()
        assert len(set(map(shard_fn, MEMBERS))) > 1
        outcomes = []
        for batched in (False, True):
            with obs.observe(clock=lambda: 0.0) as bundle:
                tracker = self.record(epochs, batched, shard_fn)
            outcomes.append(
                (
                    tracker.summary(),
                    tracker.epoch_rows(),
                    tracker.worst(30),
                    bundle.registry.to_prometheus(),
                    bundle.registry.to_json(),
                    bundle.events.of_type("dek_adopted"),
                )
            )
        assert outcomes[1] == outcomes[0]
        # Unobserved, the reads are the same too.
        unobserved = self.record(epochs, True, shard_fn)
        assert unobserved.summary() == outcomes[0][0]
        assert unobserved.epoch_rows() == outcomes[0][1]

    def test_one_record_per_epoch(self):
        tracker = LatencyTracker()
        tracker.observe_deliveries(
            ["a", "b", "c", "d"], 1, {"b": 2.5, "c": 0.0, "x": 9.0}, {"b", "x"}
        )
        assert tracker.summary()["count"] == 4
        assert tracker.epoch_percentiles(1)["max"] == 2.5
        assert tracker.worst() == [
            {"member": "b", "epoch": 1, "latency_s": 2.5, "state": "late"}
        ]


def _latency_snapshot(server, population=None):
    config = SimulationConfig(
        arrival_rate=1.0,
        rekey_period=60.0,
        horizon=480.0,
        duration_model=TwoClassDuration(180.0, 2400.0, 0.7),
        loss_population=population or LossPopulation.two_point(),
        transport=WkaBkrProtocol(keys_per_packet=16),
        verify=False,
        seed=11,
    )
    with obs.observe() as bundle:
        GroupRekeyingSimulation(server, config).run()
    return bundle.registry.to_json().get(LATENCY_METRIC)


class RecordingTransport:
    """Runs a protocol and keeps, per delivery, the late receivers among
    those that absorbed the payload."""

    def __init__(self, protocol):
        self.protocol = protocol
        self.name = protocol.name
        self.late = []

    def run(self, task, channel):
        result = self.protocol.run(task, channel)
        self.late.append(result.late & set().union(*task.audiences.values()))
        return result


class TestLateWithoutRetryPolicy:
    """WKA-BKR without a retry policy accrues no elapsed time, yet a
    receiver that needed a retry round adopted the DEK late: the ledger
    books it ``late`` at latency 0.0, never ``delivered``."""

    def test_retry_rounds_book_late_adoptions(self):
        transport = RecordingTransport(WkaBkrProtocol(keys_per_packet=16))
        config = SimulationConfig(
            arrival_rate=1.0,
            rekey_period=60.0,
            horizon=480.0,
            duration_model=TwoClassDuration(180.0, 2400.0, 0.7),
            loss_population=LossPopulation.two_point(),
            transport=transport,
            verify=False,
            seed=11,
        )
        with obs.observe() as bundle:
            sim = GroupRekeyingSimulation(OneTreeServer(degree=4), config)
            sim.run()
        late = sum(map(len, transport.late))
        assert late > 0
        assert sim.latency.summary()["late"] == late
        # Counted, not kept one record each.
        assert not any(slot.samples for slot in sim.latency._epochs.values())
        series = bundle.registry.to_json()[LATENCY_METRIC]["series"]
        by_state = {}
        for key, slot in series.items():
            state = key.split("|")[-1]
            by_state[state] = by_state.get(state, 0) + slot["count"]
            if state == "late":
                assert slot["sum"] == 0.0
        assert by_state["late"] == late
        adopted = bundle.events.of_type("dek_adopted")
        assert len(adopted) == late
        assert {record["latency"] for record in adopted} == {0.0}


class TestPartitionLatencyLabels:
    """``rekey.latency`` series carry the label of the partition holding
    the member — under every placement policy, not only the hash one."""

    @pytest.mark.parametrize(
        "build,labels,population",
        [
            (
                three_tree_server,
                {"tree-p0.2", "tree-p0.1", "tree-p0.02"},
                three_class_population(),
            ),
            (
                lambda: TwoPartitionServer(mode="tt", s_period=120.0),
                {"s-partition", "l-partition"},
                None,
            ),
            (lambda: OneTreeServer(), {"tree"}, None),
        ],
        ids=["three-trees", "tt", "one-keytree"],
    )
    def test_series_are_labelled_by_partition_and_reruns_agree(
        self, build, labels, population
    ):
        first = _latency_snapshot(build(), population)
        assert first is not None and first["series"], "no latency observed"
        assert {key.split("|")[1] for key in first["series"]} == labels
        assert json.dumps(first, sort_keys=True) == json.dumps(
            _latency_snapshot(build(), population), sort_keys=True
        )

    @pytest.mark.parametrize(
        "build,labels,population",
        [
            (
                three_tree_server,
                {"tree-p0.2", "tree-p0.1", "tree-p0.02"},
                three_class_population(),
            ),
            (
                lambda: TwoPartitionServer(mode="tt", s_period=120.0),
                {"s-partition", "l-partition"},
                None,
            ),
        ],
        ids=["three-trees", "tt"],
    )
    def test_labels_follow_the_server_a_crash_restore_swaps_in(
        self, build, labels, population
    ):
        """The tracker reads labels off the *current* server: members who
        join (or migrate) after a restore are unknown to the crashed one."""
        from repro.faults.schedule import FaultSchedule

        horizon = 600.0
        config = SimulationConfig(
            arrival_rate=0.5,
            rekey_period=60.0,
            horizon=horizon,
            duration_model=TwoClassDuration(180.0, 2400.0, 0.7),
            loss_population=population or LossPopulation.two_point(),
            transport=WkaBkrProtocol(keys_per_packet=16),
            verify=False,
            seed=11,
            fault_schedule=FaultSchedule.named("crash-restore", horizon),
        )
        started_with = build()
        sim = GroupRekeyingSimulation(started_with, config)
        with obs.observe() as bundle:
            metrics = sim.run()
        assert metrics.server_crashes == 2
        assert sim.server is not started_with
        series = bundle.registry.to_json()[LATENCY_METRIC]["series"]
        assert {key.split("|")[1] for key in series} == labels
        after_restore = [m for m in sim.members if m not in started_with._members]
        assert after_restore, "nobody joined after the last restore"
        for member_id in sim.members:
            assert sim.latency._shard(member_id) == sim.server.shard_label(member_id)


class TestChaosLatencyBattery:
    def test_blackout_abandonments_all_reach_a_terminal(self):
        from repro.faults.chaos import run_chaos_case

        with obs.observe() as bundle:
            entry = run_chaos_case(
                "one", "blackout-resync", seed=7, horizon=900.0
            )
        counts = {}
        for record in bundle.events.records:
            counts[record["type"]] = counts.get(record["type"], 0) + 1
        abandonments = counts.get("abandonment", 0)
        assert abandonments > 0, "schedule produced no abandonments"
        assert abandonments == (
            counts.get("resync", 0) + counts.get("abandoned_unrecovered", 0)
        )
        ttd = entry["time_to_new_dek"]
        assert ttd["open"] == 0
        assert ttd["count"] > 0
        assert ttd["resyncs"] + ttd["abandoned_unrecovered"] == abandonments
        assert ttd["p99_s"] >= ttd["p50_s"] >= 0.0
        # The histogram holds each closed story once.
        hist = bundle.registry.to_json()[LATENCY_METRIC]
        by_state = {}
        for key, slot in hist["series"].items():
            state = key.split("|")[2]
            by_state[state] = by_state.get(state, 0) + slot["count"]
        assert by_state.get("resync", 0) == ttd["resyncs"]
        assert by_state.get("abandoned", 0) == ttd["abandoned_unrecovered"]
        assert hist["buckets"] == list(LATENCY_LOG_BUCKETS_S)


class AbandonAtEpoch:
    """A transport that delivers everything in round 0, except that at
    epoch ``at`` it abandons the first receiver by id and has
    ``on_abandon`` told who."""

    name = "abandon-at-epoch"

    def __init__(self, at: int) -> None:
        self.at = at
        self.epoch = 0
        self.on_abandon = None

    def run(self, task, channel):
        from repro.transport.session import TransportResult

        self.epoch += 1
        outcome = TransportResult(rounds=1, satisfied=True)
        receivers = sorted(set().union(*task.audiences.values()))
        if self.epoch == self.at and receivers:
            victim = receivers.pop(0)
            outcome.abandoned.add(victim)
            self.on_abandon(victim)
        outcome.completed = dict.fromkeys(receivers, 0.0)
        return outcome


class TestLedgerDepartureBeforeTheNextBatch:
    """A receiver goes OUT_OF_SYNC, then departs, and the run ends before
    the batch that would forget it: the server's ledger still lists it,
    and its latency interval must close once, at the departure."""

    def run(self):
        transport = AbandonAtEpoch(at=2)
        config = SimulationConfig(
            arrival_rate=0.2,
            rekey_period=60.0,
            horizon=150.0,  # rekeys at 60 s and 120 s, nothing after
            duration_model=TwoClassDuration(1e6, 1e6, 0.5),
            loss_population=LossPopulation.two_point(),
            transport=transport,
            verify=True,
            seed=5,
            recovery_delay=1000.0,  # no catch-up before the horizon
        )
        sim = GroupRekeyingSimulation(OneTreeServer(), config)
        gone = []

        def depart_soon(member_id):
            gone.append(member_id)
            sim.loop.schedule(sim.loop.now + 10.0, sim._depart, member_id)

        transport.on_abandon = depart_soon
        with obs.observe(clock=lambda: sim.loop.now) as bundle:
            sim.run()
        assert len(gone) == 1
        return sim, bundle, gone[0]

    def test_one_departed_close_and_no_run_end_close(self):
        sim, bundle, victim = self.run()
        assert victim not in sim.members
        assert victim in sim.sync_tracker.desynced
        closes = [
            record
            for record in bundle.events.records
            if record["type"] in ("resync", "abandoned_unrecovered")
        ]
        assert [(r["member_id"], r["reason"]) for r in closes] == [
            (victim, "departed")
        ]
        assert closes[0]["open_for"] == pytest.approx(10.0)

    def test_summary_has_nothing_open_and_sync_counts_keep_it(self):
        sim, __, victim = self.run()
        summary = sim.latency.summary()
        assert summary["open"] == 0
        assert summary["abandoned_unrecovered"] == 1
        assert summary["resyncs"] == 0
        assert sim.latency.worst(1)[0]["member"] == victim
        assert sim.sync_tracker.counts()["out-of-sync"] == 1
