"""A minimal discrete-event loop.

Events are ``(time, sequence, action, args)`` tuples in a binary heap;
the sequence number makes ordering deterministic among simultaneous
events (insertion order), which keeps seeded runs exactly reproducible.
An event carries its action's arguments, so a caller with one event per
member schedules one bound method and the member's id instead of
building a closure for each.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Tuple

Action = Callable[..., None]


class EventLoop:
    """Deterministic discrete-event scheduler."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Action, Tuple[Any, ...]]] = []
        self._seq = itertools.count()
        self.now = 0.0
        self.processed = 0

    def schedule(self, time: float, action: Action, *args: Any) -> None:
        """Schedule ``action(*args)`` at absolute ``time`` (not in the past)."""
        if time < self.now - 1e-12:
            raise ValueError(f"cannot schedule at {time} before now={self.now}")
        heapq.heappush(self._heap, (time, next(self._seq), action, args))

    def schedule_in(self, delay: float, action: Action, *args: Any) -> None:
        """Schedule ``action(*args)`` ``delay`` seconds from the current time."""
        self.schedule(self.now + delay, action, *args)

    @property
    def pending(self) -> int:
        return len(self._heap)

    def run_until(self, horizon: float) -> int:
        """Process events up to and including ``horizon``; returns the count."""
        processed = 0
        while self._heap and self._heap[0][0] <= horizon + 1e-12:
            time, __, action, args = heapq.heappop(self._heap)
            self.now = max(self.now, time)
            action(*args)
            processed += 1
        self.now = max(self.now, horizon)
        self.processed += processed
        return processed
