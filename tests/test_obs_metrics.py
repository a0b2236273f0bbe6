"""Metrics registry: instruments, labels, exposition, snapshots, the
batch write path and scrapes taken while another thread writes."""

import math
import pickle
import struct
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import metrics
from repro.obs.check import check_histograms


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


def test_snapshot_is_picklable():
    registry = metrics.MetricsRegistry()
    registry.inc("crypto.wraps", 10)
    registry.inc("shard.jobs", 2, shard="1")
    registry.set_gauge("server.degree", 4)
    registry.observe("server.batch_cost", 5)
    snap = registry.snapshot()
    assert pickle.loads(pickle.dumps(snap)) == snap
    assert snap["server.batch_cost"]["series"][()]["count"] == 1


def test_write_path_checks_kind_and_labels_on_a_new_series():
    registry = metrics.MetricsRegistry()
    registry.inc("a.b")
    with pytest.raises(ValueError, match="already registered"):
        registry.observe("a.b", 1.0)
    with pytest.raises(ValueError, match="already registered"):
        registry.set_gauge("a.b", 1.0)
    registry.inc("c.d", shard="0")
    with pytest.raises(ValueError, match="already registered"):
        registry.inc("c.d", other="0")
    with pytest.raises(ValueError, match="already registered"):
        registry.inc("c.d")
    # Label order at the call site does not split a series.
    registry.observe("e.f", 1.0, x="1", y="2")
    registry.observe("e.f", 2.0, y="2", x="1")
    assert registry.histogram("e.f", labels=("x", "y")).stats(x="1", y="2")["count"] == 2
    assert registry.counter("c.d", labels=("shard",)).value(shard="0") == 1


def scan_placement(bounds, values):
    """Oracle: the linear bucket scan the registry used to run per value."""
    counts = [0] * (len(bounds) + 1)
    for value in values:
        for i, bound in enumerate(bounds):
            if value <= bound:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
    return counts


def same_float(a, b):
    """Bit-identical, except that any two NaNs match: when two NaNs of
    opposite sign meet, which one an addition keeps depends on the
    machine code the interpreter happens to run, not on the registry."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


SCHEMES = {"size": metrics.SIZE_BUCKETS, "latency": metrics.LATENCY_LOG_BUCKETS_S}
EDGES = sorted({float(b) for scheme in SCHEMES.values() for b in scheme})
VALUES = st.one_of(
    st.sampled_from(EDGES + [0.0, -0.0, -1.0, -1e-9, 2e6, 1e300]),
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10, 2_000_000),
)


class TestBatchEqualsLoop:
    """``observe_many`` against a loop of single ``observe`` calls and
    against the old per-value scan: bucket counts, ``count`` and a
    bit-identical float ``sum``, per series."""

    @settings(max_examples=200, deadline=None)
    @given(
        scheme=st.sampled_from(sorted(SCHEMES)),
        batches=st.lists(
            st.tuples(st.sampled_from(["a", "b"]), st.lists(VALUES, max_size=12)),
            max_size=6,
        ),
    )
    def test_batches_equal_single_observes(self, scheme, batches):
        bounds = SCHEMES[scheme]
        batched, looped = metrics.MetricsRegistry(), metrics.MetricsRegistry()
        for label, values in batches:
            batched.observe_many("h", values, buckets=bounds, part=label)
            for value in values:
                looped.observe("h", value, buckets=bounds, part=label)
        mine, loop = batched.snapshot(), looped.snapshot()
        assert mine.keys() == loop.keys()
        for label in ("a", "b"):
            values = [v for part, batch in batches if part == label for v in batch]
            if not values:
                assert "h" not in mine or (label,) not in mine["h"]["series"]
                continue
            slot, expected = mine["h"]["series"][(label,)], loop["h"]["series"][(label,)]
            assert slot["buckets"] == expected["buckets"] == scan_placement(bounds, values)
            assert slot["count"] == expected["count"] == len(values)
            total = 0.0
            for value in values:
                total += value
            assert same_float(slot["sum"], expected["sum"])
            assert same_float(slot["sum"], total)

    def test_nan_lands_in_the_overflow_bucket(self):
        registry = metrics.MetricsRegistry()
        registry.observe_many("h", [math.nan, 0.0, math.inf])
        assert registry.snapshot()["h"]["series"][()]["buckets"] == (
            [1] + [0] * (len(metrics.SIZE_BUCKETS) - 1) + [2]
        )

    def test_an_empty_batch_registers_nothing(self):
        registry = metrics.MetricsRegistry()
        registry.observe_many("h", [], shard="0")
        assert registry.snapshot() == {}
        assert registry.to_prometheus() == ""


def test_scrapes_during_observation_see_whole_histograms():
    """A scrape taken while another thread observes renders one consistent
    snapshot: every series' ``+Inf`` bucket equals its ``_count`` and the
    cumulative buckets never decrease."""
    registry = metrics.MetricsRegistry()
    stop = threading.Event()

    def writer():
        i = 0
        while not stop.is_set():
            registry.observe(
                "rekey.latency", float(i % 700), metrics.LATENCY_LOG_BUCKETS_S,
                shard=str(i % 3),
            )
            registry.inc("server.rekeys")
            i += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    writers = [threading.Thread(target=writer, daemon=True) for _ in range(2)]
    for thread in writers:
        thread.start()
    try:
        for _ in range(300):
            check_histograms(metrics.parse_prometheus(registry.to_prometheus()))
    finally:
        stop.set()
        for thread in writers:
            thread.join(timeout=10.0)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in writers)
    assert check_histograms(metrics.parse_prometheus(registry.to_prometheus())) == 3


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
