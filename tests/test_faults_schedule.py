"""Fault schedules: windows, deterministic coverage, canned scenarios."""

import pytest

from repro.faults.schedule import (
    STANDARD_SCHEDULES,
    Blackout,
    ChurnStorm,
    DeliveryJitter,
    DuplicateDelivery,
    FaultSchedule,
    LossBurst,
    ServerCrash,
)


class TestWindows:
    def test_active_half_open_interval(self):
        burst = LossBurst(start=10.0, duration=5.0)
        assert not burst.active(9.999)
        assert burst.active(10.0)
        assert burst.active(14.999)
        assert not burst.active(15.0)

    def test_explicit_receivers_override_fraction(self):
        blackout = Blackout(
            start=0.0, duration=1.0, receivers=frozenset({"a"}), fraction=1.0
        )
        assert blackout.covers("a")
        assert not blackout.covers("b")

    def test_fraction_coverage_is_stable_and_proportional(self):
        burst = LossBurst(start=0.0, duration=1.0, fraction=0.4)
        ids = [f"m{i}" for i in range(2000)]
        covered = {rid for rid in ids if burst.covers(rid)}
        # Deterministic: the same ids are always picked.
        assert covered == {rid for rid in ids if burst.covers(rid)}
        assert 0.3 < len(covered) / len(ids) < 0.5
        assert not any(
            Blackout(start=0.0, duration=1.0, fraction=0.0).covers(r) for r in ids
        )
        assert all(
            Blackout(start=0.0, duration=1.0, fraction=1.0).covers(r) for r in ids
        )


class TestFaultSchedule:
    def test_of_classifies_and_sorts(self):
        schedule = FaultSchedule.of(
            [
                ServerCrash(at_time=900.0),
                ServerCrash(at_time=300.0),
                ChurnStorm(at_time=500.0, joins=3, leaves=2),
                LossBurst(start=0.0, duration=10.0),
                Blackout(start=0.0, duration=10.0),
                DuplicateDelivery(start=0.0, duration=10.0),
                DeliveryJitter(start=0.0, duration=10.0),
            ]
        )
        assert [c.at_time for c in schedule.crashes] == [300.0, 900.0]
        assert len(schedule.bursts) == 1
        assert len(schedule.storms) == 1

    def test_of_rejects_unknown_fault(self):
        with pytest.raises(TypeError):
            FaultSchedule.of(["not-a-fault"])

    def test_channel_queries(self):
        schedule = FaultSchedule.of(
            [
                LossBurst(start=10.0, duration=5.0, fraction=1.0),
                Blackout(start=20.0, duration=5.0, receivers=frozenset({"x"})),
                DuplicateDelivery(start=0.0, duration=100.0, probability=0.3),
                DeliveryJitter(start=50.0, duration=10.0),
            ]
        )
        assert schedule.burst_for("m1", 12.0) is not None
        assert schedule.burst_for("m1", 16.0) is None
        assert schedule.blacked_out("x", 22.0)
        assert not schedule.blacked_out("y", 22.0)
        assert schedule.duplicate_probability(1.0) == 0.3
        assert schedule.duplicate_probability(200.0) == 0.0
        assert schedule.jitter_active(55.0)
        assert not schedule.jitter_active(45.0)

    def test_randomized_is_seed_deterministic(self):
        a = FaultSchedule.randomized(42, 1800.0)
        b = FaultSchedule.randomized(42, 1800.0)
        c = FaultSchedule.randomized(43, 1800.0)
        assert a == b
        assert a != c
        # Every fault type is represented.
        assert a.bursts and a.blackouts and a.duplicates
        assert a.jitters and a.crashes and a.storms

    def test_named_schedules_cover_the_standard_set(self):
        for name in STANDARD_SCHEDULES:
            schedule = FaultSchedule.named(name, 1800.0)
            assert schedule.name == name
        with pytest.raises(ValueError):
            FaultSchedule.named("nonsense", 1800.0)
