"""Hierarchical span tracing for rekey epochs.

A :class:`Tracer` records a tree of :class:`Span`\\ s per run.  The
canonical hierarchy an instrumented simulation produces is::

    epoch
    ├── rekey                 (server-side batch processing)
    │   ├── mark              (batch marking: departures then joins)
    │   ├── generate          (key refresh of marked nodes)
    │   ├── wrap              (wrapping refreshed keys under children)
    │   └── shard[label]      (one per partition the batch touches)
    ├── transport             (reliable delivery)
    │   └── transport.round   (one per transport round, any protocol)
    └── deliver               (receiver absorption + sync tracking)

Every span carries **two clocks**: wall time (``time.perf_counter``) and,
when the tracer was given a simulation clock, simulated time.  Fault
windows from :class:`repro.faults.schedule.FaultSchedule` and crashes are
attached to the enclosing span as :class:`SpanEvent`\\ s.

Like the metrics registry, the module-level probes (:func:`span`,
:func:`event`, :func:`add_span`) cost one global-``is None`` check when no
tracer is installed; :func:`span` then returns a shared null context
manager whose span object swallows every method call, so call sites never
branch on whether tracing is on.
"""

from __future__ import annotations

import itertools
import threading
import time as _time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional


@dataclass
class SpanEvent:
    """A point-in-time annotation attached to a span (e.g. a fault window)."""

    name: str
    wall_s: float
    sim_time: Optional[float] = None
    attributes: Dict[str, object] = field(default_factory=dict)

    def to_record(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "wall_s": round(self.wall_s, 6),
            "sim_time": self.sim_time,
            "attributes": self.attributes,
        }


class Span:
    """One timed node in the trace tree."""

    __slots__ = (
        "span_id", "parent_id", "name", "attributes", "events",
        "wall_start_s", "wall_end_s", "sim_start", "sim_end", "_tracer",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        tracer: "Tracer",
        attributes: Optional[Dict[str, object]] = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attributes: Dict[str, object] = attributes or {}
        self.events: List[SpanEvent] = []
        self.wall_start_s = _time.perf_counter()
        self.wall_end_s: Optional[float] = None
        self.sim_start = tracer.sim_now()
        self.sim_end: Optional[float] = None
        self._tracer = tracer

    @property
    def duration_s(self) -> float:
        """Wall-clock duration (up to now while the span is still open)."""
        end = self.wall_end_s if self.wall_end_s is not None else _time.perf_counter()
        return end - self.wall_start_s

    def set(self, key: str, value: object) -> None:
        """Attach/overwrite one attribute."""
        self.attributes[key] = value

    def event(self, name: str, **attributes: object) -> SpanEvent:
        """Attach a point-in-time event to this span."""
        evt = SpanEvent(
            name=name,
            wall_s=_time.perf_counter(),
            sim_time=self._tracer.sim_now(),
            attributes=attributes,
        )
        self.events.append(evt)
        return evt

    def finish(self) -> None:
        if self.wall_end_s is None:
            self.wall_end_s = _time.perf_counter()
            self.sim_end = self._tracer.sim_now()

    def to_record(self) -> Dict[str, object]:
        return {
            "record": "span",
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "wall_s": round(self.duration_s, 6),
            "wall_start_s": round(self.wall_start_s, 6),
            "sim_start": self.sim_start,
            "sim_end": self.sim_end,
            "attributes": self.attributes,
            "events": [evt.to_record() for evt in self.events],
        }


class _NullSpan:
    """Inert stand-in handed out when no tracer is active."""

    __slots__ = ()

    def set(self, key: str, value: object) -> None:
        pass

    def event(self, name: str, **attributes: object) -> None:
        pass

    @property
    def duration_s(self) -> float:
        return 0.0


_NULL_SPAN = _NullSpan()


class _NullSpanContext:
    """Reusable, stateless ``with`` target for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_CONTEXT = _NullSpanContext()


class Tracer:
    """Collects finished spans; maintains the current-span stack."""

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        #: Optional simulated-time clock (e.g. ``lambda: sim.loop.now``).
        self.clock = clock
        self.spans: List[Span] = []
        # The current-span stack is thread-local: spans opened from another
        # thread (the live metrics endpoint runs one) must not interleave
        # with (or mis-parent under) the main thread's open spans.
        self._local = threading.local()
        self._ids = itertools.count(1)

    @property
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def sim_now(self) -> Optional[float]:
        return self.clock() if self.clock is not None else None

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """(Re)wire the simulated-time clock — simulations call this at start."""
        self.clock = clock

    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, **attributes: object) -> Iterator[Span]:
        parent = self.current()
        sp = Span(
            span_id=next(self._ids),
            parent_id=parent.span_id if parent else None,
            name=name,
            tracer=self,
            attributes=dict(attributes) if attributes else None,
        )
        self._stack.append(sp)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.finish()
            self.spans.append(sp)

    def add_span(
        self,
        name: str,
        wall_s: float,
        sim_time: Optional[float] = None,
        **attributes: object,
    ) -> Span:
        """Record an externally measured span (e.g. one partition's batch slice).

        The span parents under the current span and carries ``wall_s`` as
        its duration without having been timed by this process.
        """
        parent = self.current()
        sp = Span(
            span_id=next(self._ids),
            parent_id=parent.span_id if parent else None,
            name=name,
            tracer=self,
            attributes=dict(attributes) if attributes else None,
        )
        sp.wall_end_s = sp.wall_start_s + max(0.0, wall_s)
        if sim_time is not None:
            sp.sim_start = sp.sim_end = sim_time
        else:
            sp.sim_end = sp.sim_start
        self.spans.append(sp)
        return sp

    def event(self, name: str, **attributes: object) -> None:
        """Attach an event to the current span (dropped when no span is open)."""
        current = self.current()
        if current is not None:
            current.event(name, **attributes)

    def to_records(self) -> List[Dict[str, object]]:
        """Span records in completion order (parents after their children)."""
        return [sp.to_record() for sp in self.spans]


# ----------------------------------------------------------------------
# the active tracer and the cheap module-level probes
# ----------------------------------------------------------------------

_ACTIVE: Optional[Tracer] = None


def active_tracer() -> Optional[Tracer]:
    return _ACTIVE


@contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Install ``tracer`` (fresh one by default) for the ``with`` body."""
    global _ACTIVE
    if tracer is None:
        tracer = Tracer()
    previous = _ACTIVE
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = previous


def span(name: str, **attributes: object):
    """Open a span on the active tracer (shared null context when none)."""
    tracer = _ACTIVE
    if tracer is None:
        return _NULL_CONTEXT
    return tracer.span(name, **attributes)


def event(name: str, **attributes: object) -> None:
    """Attach an event to the active tracer's current span (no-op when none)."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.event(name, **attributes)


def set_attr(key: str, value: object) -> None:
    """Set an attribute on the current span (no-op when none is open)."""
    tracer = _ACTIVE
    if tracer is not None:
        current = tracer.current()
        if current is not None:
            current.set(key, value)


def add_span(
    name: str,
    wall_s: float,
    sim_time: Optional[float] = None,
    **attributes: object,
) -> None:
    """Record an externally measured span (no-op when no tracer)."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.add_span(name, wall_s, sim_time=sim_time, **attributes)
