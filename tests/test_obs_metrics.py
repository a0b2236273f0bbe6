"""Metrics registry: instruments, labels, exposition, snapshot/merge."""

import pickle

import pytest

from repro.obs import metrics


def test_counter_inc_and_total():
    registry = metrics.MetricsRegistry()
    registry.inc("server.rekeys")
    registry.inc("server.rekeys", 4)
    assert registry.counter_total("server.rekeys") == 5
    assert registry.counter_total("never.incremented") == 0


def test_labeled_counter_series_are_independent():
    registry = metrics.MetricsRegistry()
    registry.inc("shard.jobs", shard="0")
    registry.inc("shard.jobs", 2, shard="1")
    counter = registry.counter("shard.jobs", labels=("shard",))
    assert counter.value(shard="0") == 1
    assert counter.value(shard="1") == 2
    assert registry.counter_total("shard.jobs") == 3


def test_gauge_set_and_inc():
    registry = metrics.MetricsRegistry()
    registry.set_gauge("server.degree", 4)
    gauge = registry.gauge("server.degree")
    assert gauge.value() == 4


def test_histogram_buckets_sum_count():
    registry = metrics.MetricsRegistry()
    for value in (1, 3, 70, 9_999_999):
        registry.observe("server.batch_cost", value)
    hist = registry.histogram("server.batch_cost")
    stats = hist.stats()
    assert stats["count"] == 4
    assert stats["sum"] == 1 + 3 + 70 + 9_999_999
    # Slots hold per-bucket counts; only the over-range observation
    # lands in the final +Inf slot.
    view = hist.series[()]
    assert view["buckets"][-1] == 1
    assert sum(view["buckets"]) == 4


def test_kind_and_label_consistency_enforced():
    registry = metrics.MetricsRegistry()
    registry.counter("a.b")
    with pytest.raises(ValueError):
        registry.gauge("a.b")
    registry.counter("c.d", labels=("shard",))
    with pytest.raises(ValueError):
        registry.counter("c.d", labels=("other",))


def test_prometheus_exposition_roundtrip():
    registry = metrics.MetricsRegistry()
    registry.inc("server.rekeys", 3)
    registry.inc("shard.jobs", 2, shard="1")
    registry.set_gauge("server.degree", 4)
    registry.observe("server.batch_cost", 42)
    text = registry.to_prometheus()
    assert "# TYPE repro_server_rekeys_total counter" in text
    assert "repro_server_rekeys_total 3" in text
    assert 'repro_shard_jobs_total{shard="1"} 2' in text
    assert "repro_server_degree 4" in text
    assert "repro_server_batch_cost_count 1" in text
    samples = metrics.parse_prometheus(text)
    assert samples["repro_server_rekeys_total"] == 3
    assert samples['repro_shard_jobs_total{shard="1"}'] == 2
    assert samples["repro_server_degree"] == 4


def test_parse_prometheus_rejects_garbage():
    with pytest.raises(ValueError):
        metrics.parse_prometheus("this is not an exposition line\n")


def test_snapshot_is_picklable_and_merge_adds():
    registry = metrics.MetricsRegistry()
    registry.inc("crypto.wraps", 10)
    registry.observe("server.batch_cost", 5)
    snap = pickle.loads(pickle.dumps(registry.snapshot()))

    target = metrics.MetricsRegistry()
    target.inc("crypto.wraps", 1)
    target.merge(snap)
    target.merge(snap)
    assert target.counter_total("crypto.wraps") == 21
    assert target.histogram("server.batch_cost").stats()["count"] == 2


def test_module_probes_are_noops_when_disabled():
    # No registry installed: the probes must silently do nothing.
    metrics.inc("never.recorded")
    metrics.observe("never.recorded.hist", 1.0)
    metrics.gauge_set("never.recorded.gauge", 1.0)
    assert metrics.active_registry() is None


def test_collecting_installs_and_restores():
    assert metrics.active_registry() is None
    with metrics.collecting() as registry:
        assert metrics.active_registry() is registry
        metrics.inc("seen")
    assert metrics.active_registry() is None
    assert registry.counter_total("seen") == 1


def test_collecting_nests():
    # The inner registry shadows the outer one and restores it on exit.
    outer, inner = metrics.MetricsRegistry(), metrics.MetricsRegistry()
    with metrics.collecting(outer):
        with metrics.collecting(inner):
            assert metrics.active_registry() is inner
            metrics.inc("ops")
        assert metrics.active_registry() is outer
        metrics.inc("ops")
    assert metrics.active_registry() is None
    assert inner.counter_total("ops") == 1
    assert outer.counter_total("ops") == 1


def test_to_json_snapshot_shape():
    registry = metrics.MetricsRegistry()
    registry.inc("shard.jobs", 2, shard="1")
    dump = registry.to_json()
    assert dump["shard.jobs"]["kind"] == "counter"
    assert dump["shard.jobs"]["series"] == {"1": 2}
