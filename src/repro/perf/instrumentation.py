"""Counters and timers for the rekeying hot paths.

The instrumented code (``GroupKeyServer.rekey``, ``FlatKeyTree.add_member``
/ ``remove_member``, :meth:`WrapIndex.closure
<repro.crypto.wrap.WrapIndex.closure>`, ``Member.absorb``, transport
packing) calls the module-level :func:`count` and :func:`timed` probes.  When no recorder is
active — the normal case — each probe is one global ``is None`` check;
activating a :class:`PerfRecorder` (usually via the :func:`recording`
context manager) makes the same probes accumulate into it.

Counters are the basis of the *op-count budget* regression tests: unlike
wall-clock they are deterministic, so CI can assert that per-member rekey
delivery work stays O(tree depth) without flaking on a loaded runner.

Since the unified observability layer landed this module is also a
**compatibility shim**: the same probes additionally forward into the
active :class:`repro.obs.metrics.MetricsRegistry` when one is installed
(counts become registry counters under the same dotted name; timed
phases become ``<name>.seconds`` latency histograms).  The op-count
budget tests read a :class:`PerfRecorder`; everything else reads the
registry.  With neither sink active a probe is still just two global
``is None`` checks.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

from repro.obs import metrics as _obs_metrics


@dataclass
class Counter:
    """A named monotonic event count."""

    name: str
    value: int = 0

    def add(self, n: int = 1) -> None:
        self.value += n


@dataclass
class Timer:
    """Accumulated wall-clock for a named phase."""

    name: str
    total: float = 0.0
    calls: int = 0

    def add(self, elapsed: float) -> None:
        self.total += elapsed
        self.calls += 1

    @property
    def mean(self) -> float:
        return self.total / self.calls if self.calls else 0.0


@dataclass
class PerfRecorder:
    """A sink for counter increments and timed phases.

    One recorder per measurement window; :meth:`snapshot` returns plain
    dicts suitable for JSON emission or test assertions.
    """

    counters: Dict[str, Counter] = field(default_factory=dict)
    timers: Dict[str, Timer] = field(default_factory=dict)

    def count(self, name: str, n: int = 1) -> None:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        counter.add(n)

    def add_time(self, name: str, elapsed: float) -> None:
        timer = self.timers.get(name)
        if timer is None:
            timer = self.timers[name] = Timer(name)
        timer.add(elapsed)

    @contextmanager
    def timeit(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - start)

    def counter(self, name: str) -> int:
        """Current value of ``name`` (0 when never incremented)."""
        counter = self.counters.get(name)
        return counter.value if counter is not None else 0

    def timer_total(self, name: str) -> float:
        timer = self.timers.get(name)
        return timer.total if timer is not None else 0.0

    def snapshot(self) -> Dict[str, object]:
        """JSON-friendly view: counter values and timer totals/calls."""
        return {
            "counters": {name: c.value for name, c in self.counters.items()},
            "timers": {
                name: {"total_s": t.total, "calls": t.calls}
                for name, t in self.timers.items()
            },
        }


#: The recorder hot-path probes report into, or None (probes are no-ops).
_ACTIVE: Optional[PerfRecorder] = None


def active_recorder() -> Optional[PerfRecorder]:
    """The currently installed recorder, if any."""
    return _ACTIVE


def count(name: str, n: int = 1) -> None:
    """Increment ``name`` on the active recorder (no-op when none).

    Hot loops should aggregate (count once with ``n=len(batch)``) rather
    than probing per element.
    """
    recorder = _ACTIVE
    if recorder is not None:
        recorder.count(name, n)
    registry = _obs_metrics._ACTIVE
    if registry is not None:
        registry.inc(name, n)


@contextmanager
def timed(name: str) -> Iterator[None]:
    """Time a phase on the active recorder (plain passthrough when none)."""
    recorder = _ACTIVE
    registry = _obs_metrics._ACTIVE
    if recorder is None and registry is None:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - start
        if recorder is not None:
            recorder.add_time(name, elapsed)
        if registry is not None:
            registry.observe(
                name + ".seconds", elapsed, buckets=_obs_metrics.LATENCY_BUCKETS_S
            )


@contextmanager
def recording(recorder: Optional[PerfRecorder] = None) -> Iterator[PerfRecorder]:
    """Install ``recorder`` (fresh one by default) for the ``with`` body.

    Nesting replaces the outer recorder for the inner scope and restores
    it on exit, so measurement windows compose.
    """
    global _ACTIVE
    if recorder is None:
        recorder = PerfRecorder()
    previous = _ACTIVE
    _ACTIVE = recorder
    try:
        yield recorder
    finally:
        _ACTIVE = previous
