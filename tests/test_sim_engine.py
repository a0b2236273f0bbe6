"""Unit tests for the discrete-event loop."""

import pytest

from repro.sim.engine import EventLoop


class TestEventLoop:
    def test_runs_events_in_time_order(self):
        loop = EventLoop()
        log = []
        loop.schedule(3.0, lambda: log.append("c"))
        loop.schedule(1.0, lambda: log.append("a"))
        loop.schedule(2.0, lambda: log.append("b"))
        loop.run_until(10.0)
        assert log == ["a", "b", "c"]

    def test_simultaneous_events_keep_insertion_order(self):
        loop = EventLoop()
        log = []
        for tag in "xyz":
            loop.schedule(5.0, lambda t=tag: log.append(t))
        loop.run_until(5.0)
        assert log == ["x", "y", "z"]

    def test_horizon_bounds_execution(self):
        loop = EventLoop()
        log = []
        loop.schedule(1.0, lambda: log.append(1))
        loop.schedule(20.0, lambda: log.append(20))
        processed = loop.run_until(10.0)
        assert processed == 1
        assert log == [1]
        assert loop.pending == 1
        assert loop.now == 10.0

    def test_events_can_schedule_more_events(self):
        loop = EventLoop()
        log = []

        def recur():
            log.append(loop.now)
            if loop.now < 5:
                loop.schedule_in(1.0, recur)

        loop.schedule(1.0, recur)
        loop.run_until(100.0)
        assert log == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_scheduling_in_the_past_rejected(self):
        loop = EventLoop()
        loop.schedule(5.0, lambda: None)
        loop.run_until(5.0)
        with pytest.raises(ValueError):
            loop.schedule(1.0, lambda: None)
