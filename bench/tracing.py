"""Spans recorded from outside the program, around calls into each layer.

The traced run wraps public entry points (instance wrappers on one
server / channel, class-level wrappers on ``Member``, ``WrapIndex`` and
``BatchResult``) so every layer boundary the epoch crosses opens a frame
on one stack.  A frame's *busy* time is its duration, its *self* time is
busy minus the busy time of the frames opened inside it, so the self
times of one epoch sum to the epoch's wall time by construction.

Coarse calls (a handful per epoch) are kept as span records with name,
start, end, parent and the epoch id; fine-grained calls (thousands per
epoch) are only aggregated to ``[calls, busy_ns, self_ns, weight]`` per
epoch at the same boundary.  Everything stays in memory until
:meth:`Tracer.dump`.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Dict, Iterator, List, Optional

EPOCH = "epoch"


class NullTracer:
    """Tracing off: every hook is a no-op (the untraced run's cost)."""

    def begin_epoch(self) -> None:
        pass

    def end_epoch(self) -> None:
        pass

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield


class Tracer:
    def __init__(self) -> None:
        self.stack: List[list] = []  # open frames: [name, start_ns, child_ns, span_id]
        self.totals: Dict[str, list] = {}  # layer -> [calls, busy, self, weight]
        self.spans: List[dict] = []
        self.epochs: List[dict] = []
        self.between: Dict[str, list] = {}  # totals accumulated outside epochs
        self.epoch_id = 0
        self.next_span = 0

    # -- frames ---------------------------------------------------------

    def begin(self, name: str) -> None:
        self.next_span += 1
        self.stack.append([name, perf_counter_ns(), 0, self.next_span])

    def end(self, coarse: bool = False, weight: int = 0) -> None:
        end = perf_counter_ns()
        name, start, child, span_id = self.stack.pop()
        busy = end - start
        parent = None
        if self.stack:
            self.stack[-1][2] += busy
            parent = self.stack[-1][3]
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0, 0, 0]
        total[0] += 1
        total[1] += busy
        total[2] += busy - child
        total[3] += weight
        if coarse:
            self.spans.append(
                {"id": span_id, "name": name, "start_ns": start, "end_ns": end,
                 "parent": parent, "epoch": self.epoch_id}
            )

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.begin(name)
        try:
            yield
        finally:
            self.end(coarse=True)

    def wrap(
        self,
        name: str,
        fn: Callable,
        coarse: bool = False,
        weigh: Optional[Callable[[object], int]] = None,
    ) -> Callable:
        """``fn`` with a frame around every call; ``weigh(result)`` adds
        a work count (e.g. keys learned) to the layer's aggregate."""
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            begin(name)
            weight = 0
            try:
                result = fn(*args, **kwargs)
                if weigh is not None:
                    weight = weigh(result)
                return result
            finally:
                end(coarse, weight)

        return traced

    # -- epochs ---------------------------------------------------------

    def begin_epoch(self) -> None:
        """Open the epoch frame; what accumulated since the last epoch
        (joins, leaves) becomes this epoch's ``between`` bucket."""
        self.epoch_id += 1
        self.between, self.totals = self.totals, {}
        self.begin(EPOCH)

    def end_epoch(self) -> None:
        self.end(coarse=True)
        layers, self.totals = self.totals, {}
        __, wall, self_ns, __ = layers.pop(EPOCH)
        self.epochs.append(
            {"epoch": self.epoch_id, "wall_ns": wall, "self_ns": self_ns,
             "layers": layers, "between": self.between, "counts": {}}
        )

    def annotate(self, **counts) -> None:
        """Attach work counts read at a layer boundary to the last epoch."""
        self.epochs[-1]["counts"].update(counts)

    # -- output ---------------------------------------------------------

    def dump(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {"header": header, "spans": self.spans, "epochs": self.epochs}
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(document), encoding="utf-8")
        tmp.replace(path)


class TracedTransport:
    """Delegating transport: forwards ``run`` and ``name``, records the
    ``transport.run`` span and keeps the result's cost accounting."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.name = getattr(inner, "name", type(inner).__name__)
        self.last = None

    def run(self, task, channel):
        self.last = None  # stays None if the run raises
        self.tracer.begin("transport.run")
        try:
            self.last = self.inner.run(task, channel)
            return self.last
        finally:
            self.tracer.end(coarse=True)
