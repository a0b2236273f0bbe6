"""Op-count instrumentation: the probe sites report into ``repro.obs.metrics``.

The counts the paper prices a rekey in (wraps made, keys unwrapped) come
from module-level probes such as ``crypto.wraps``.  These tests drive real
probe sites through :func:`repro.obs.metrics.collecting` and read the
counts back with :meth:`MetricsRegistry.counter_total`.
"""

import json

from repro.crypto.material import KeyGenerator
from repro.crypto.wrap import unwrap_key, wrap_key
from repro.obs import metrics


def _wrap_once(seed=41):
    gen = KeyGenerator(seed)
    wrapping = gen.generate("wrapping", version=3)
    return wrapping, wrap_key(wrapping, gen.generate("payload", version=7))


class TestRecorder:
    def test_counts_accumulate(self):
        with metrics.collecting() as registry:
            wrapping, encrypted = _wrap_once()
            _wrap_once(seed=42)
            unwrap_key(wrapping, encrypted)
            metrics.inc("crypto.wraps", 4)
        assert registry.counter_total("crypto.wraps") == 6
        assert registry.counter_total("crypto.unwraps") == 1

    def test_unknown_counter_reads_zero(self):
        with metrics.collecting() as registry:
            _wrap_once()
        assert registry.counter_total("crypto.unwraps") == 0
        assert metrics.MetricsRegistry().counter_total("missing") == 0

    def test_snapshot_is_plain_data(self):
        with metrics.collecting() as registry:
            _wrap_once()
            _wrap_once(seed=42)
        snap = registry.snapshot()
        assert snap["crypto.wraps"]["kind"] == "counter"
        assert snap["crypto.wraps"]["series"] == {(): 2}
        # Plain containers and numbers only: the registry's state is not
        # shared with the snapshot.
        registry.inc("crypto.wraps")
        assert snap["crypto.wraps"]["series"] == {(): 2}
        assert json.loads(json.dumps(registry.to_json()))["crypto.wraps"]["kind"] == "counter"


class TestModuleProbes:
    def test_probes_are_noops_without_recorder(self):
        assert metrics.active_registry() is None
        wrapping, encrypted = _wrap_once()  # the probe sites must not raise
        unwrap_key(wrapping, encrypted)
        metrics.inc("crypto.wraps", 10)
        assert metrics.active_registry() is None

    def test_recording_installs_and_restores(self):
        registry = metrics.MetricsRegistry()
        with metrics.collecting(registry) as active:
            assert active is registry
            assert metrics.active_registry() is registry
            _wrap_once()
        assert metrics.active_registry() is None
        _wrap_once()  # after the window: not counted
        assert registry.counter_total("crypto.wraps") == 1

    def test_recording_creates_recorder_when_omitted(self):
        with metrics.collecting() as registry:
            _wrap_once()
        assert isinstance(registry, metrics.MetricsRegistry)
        assert registry.counter_total("crypto.wraps") == 1
