"""Composable, seeded fault schedules expressed in simulation time.

A :class:`FaultSchedule` is a bag of fault windows and point events.  The
window faults (:class:`LossBurst`, :class:`Blackout`,
:class:`DuplicateDelivery`, :class:`DeliveryJitter`) are resolved by
:class:`~repro.faults.channel.FaultyChannel` once per multicast; the
point events (:class:`ServerCrash`, :class:`ChurnStorm`) are consumed by
the simulator, which crashes-and-restores the key server through the
:mod:`repro.server.snapshot` machinery and injects membership storms into
the event loop.

Receiver selection is deterministic: a fault with ``receivers`` names them
explicitly, one with ``fraction`` picks a stable pseudo-random subset by
hashing the receiver id — the same ids are affected no matter what else
churns, which keeps chaos runs replayable.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Tuple


def _covers(receiver_id: str, receivers: Optional[FrozenSet[str]], fraction: float) -> bool:
    """Stable membership test for a fault's receiver selection."""
    if receivers is not None:
        return receiver_id in receivers
    if fraction >= 1.0:
        return True
    if fraction <= 0.0:
        return False
    return zlib.crc32(receiver_id.encode()) % 10_000 < fraction * 10_000


@dataclass(frozen=True)
class _Window:
    """A fault active over ``[start, start + duration)``."""

    start: float
    duration: float

    def active(self, now: float) -> bool:
        return self.start <= now < self.start + self.duration

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class LossBurst(_Window):
    """Correlated loss spike: Gilbert–Elliott override of the loss draws.

    While active, affected receivers' deliveries are drawn from a bursty
    two-state chain with these parameters *instead of* their steady-state
    loss process (which keeps advancing on its own stream and resumes,
    un-shifted, when the window closes).
    """

    p_good_to_bad: float = 0.4
    p_bad_to_good: float = 0.15
    good_loss: float = 0.05
    bad_loss: float = 0.9
    receivers: Optional[FrozenSet[str]] = None
    fraction: float = 1.0

    def covers(self, receiver_id: str) -> bool:
        return _covers(receiver_id, self.receivers, self.fraction)


@dataclass(frozen=True)
class Blackout(_Window):
    """Affected receivers lose **every** packet while the window is open —
    a partitioned subtree, a crashed last-hop router, a suspended laptop."""

    receivers: Optional[FrozenSet[str]] = None
    fraction: float = 0.0

    def covers(self, receiver_id: str) -> bool:
        return _covers(receiver_id, self.receivers, self.fraction)


@dataclass(frozen=True)
class DuplicateDelivery(_Window):
    """Each successful delivery is duplicated with this probability —
    receivers must be idempotent (and :meth:`Member.absorb` is)."""

    probability: float = 0.2


@dataclass(frozen=True)
class DeliveryJitter(_Window):
    """Per-packet receiver processing order is shuffled while active.

    Steady-state semantics are unchanged (per-receiver RNG streams make
    draw outcomes order-independent); the point is to prove nothing in the
    transport or receiver stack depends on delivery iteration order.
    """


@dataclass(frozen=True)
class ServerCrash:
    """The key server crashes at ``at_time`` and restores from its
    snapshot — mid-batch: the computed rekey payload is lost before any
    packet of it reaches the wire, and the restored server re-derives it."""

    at_time: float


@dataclass(frozen=True)
class ChurnStorm:
    """A burst of ``joins`` arrivals and ``leaves`` departures injected at
    ``at_time`` on top of the steady workload."""

    at_time: float
    joins: int = 0
    leaves: int = 0


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable collection of fault windows and point events."""

    bursts: Tuple[LossBurst, ...] = ()
    blackouts: Tuple[Blackout, ...] = ()
    duplicates: Tuple[DuplicateDelivery, ...] = ()
    jitters: Tuple[DeliveryJitter, ...] = ()
    crashes: Tuple[ServerCrash, ...] = ()
    storms: Tuple[ChurnStorm, ...] = ()
    name: str = "custom"

    @classmethod
    def of(cls, faults: Sequence[object], name: str = "custom") -> "FaultSchedule":
        """Build a schedule from a mixed fault list."""
        groups = {
            LossBurst: [], Blackout: [], DuplicateDelivery: [],
            DeliveryJitter: [], ServerCrash: [], ChurnStorm: [],
        }
        for fault in faults:
            for kind, bucket in groups.items():
                if isinstance(fault, kind):
                    bucket.append(fault)
                    break
            else:
                raise TypeError(f"unknown fault type {type(fault).__name__}")
        return cls(
            bursts=tuple(groups[LossBurst]),
            blackouts=tuple(groups[Blackout]),
            duplicates=tuple(groups[DuplicateDelivery]),
            jitters=tuple(groups[DeliveryJitter]),
            crashes=tuple(sorted(groups[ServerCrash], key=lambda c: c.at_time)),
            storms=tuple(sorted(groups[ChurnStorm], key=lambda s: s.at_time)),
            name=name,
        )

    # ------------------------------------------------------------------
    # channel-side queries (asked once per multicast — simulated time
    # cannot advance inside one; per receiver only ``covers`` remains)
    # ------------------------------------------------------------------

    def open_bursts(self, now: float) -> List[Tuple[int, LossBurst]]:
        """The loss bursts open at ``now``, each with its schedule index."""
        return [
            (index, burst)
            for index, burst in enumerate(self.bursts)
            if burst.active(now)
        ]

    def open_blackouts(self, now: float) -> List[Blackout]:
        """The blackouts open at ``now``."""
        return [blackout for blackout in self.blackouts if blackout.active(now)]

    def burst_for(self, receiver_id: str, now: float) -> Optional[LossBurst]:
        """The active loss burst covering this receiver, if any."""
        for __, burst in self.open_bursts(now):
            if burst.covers(receiver_id):
                return burst
        return None

    def blacked_out(self, receiver_id: str, now: float) -> bool:
        return any(b.covers(receiver_id) for b in self.open_blackouts(now))

    def duplicate_probability(self, now: float) -> float:
        probability = 0.0
        for window in self.duplicates:
            if window.active(now):
                probability = max(probability, window.probability)
        return probability

    def jitter_active(self, now: float) -> bool:
        return any(w.active(now) for w in self.jitters)

    # ------------------------------------------------------------------
    # canned and randomized schedules
    # ------------------------------------------------------------------

    @classmethod
    def randomized(
        cls, seed: int, horizon: float, intensity: float = 1.0
    ) -> "FaultSchedule":
        """A seeded random composition of every fault type.

        ``intensity`` scales how many windows are drawn; the same seed and
        horizon always produce the same schedule.
        """
        rng = random.Random(f"fault-schedule/{seed}")
        faults: List[object] = []
        n = max(1, round(2 * intensity))
        for __ in range(n):
            start = rng.uniform(0.1, 0.7) * horizon
            faults.append(
                LossBurst(
                    start=start,
                    duration=rng.uniform(0.05, 0.2) * horizon,
                    bad_loss=rng.uniform(0.7, 0.95),
                    fraction=rng.uniform(0.3, 1.0),
                )
            )
        for __ in range(n):
            faults.append(
                Blackout(
                    start=rng.uniform(0.2, 0.6) * horizon,
                    duration=rng.uniform(0.05, 0.15) * horizon,
                    fraction=rng.uniform(0.05, 0.25),
                )
            )
        faults.append(
            DuplicateDelivery(
                start=rng.uniform(0.0, 0.5) * horizon,
                duration=rng.uniform(0.2, 0.5) * horizon,
                probability=rng.uniform(0.1, 0.4),
            )
        )
        faults.append(
            DeliveryJitter(
                start=rng.uniform(0.0, 0.5) * horizon,
                duration=rng.uniform(0.2, 0.5) * horizon,
            )
        )
        faults.append(ServerCrash(at_time=rng.uniform(0.3, 0.8) * horizon))
        faults.append(
            ChurnStorm(
                at_time=rng.uniform(0.2, 0.7) * horizon,
                joins=rng.randint(5, 15),
                leaves=rng.randint(3, 10),
            )
        )
        return cls.of(faults, name=f"randomized-{seed}")

    @classmethod
    def named(cls, name: str, horizon: float) -> "FaultSchedule":
        """The canned chaos scenarios ``repro chaos`` runs by default."""
        if name == "burst-loss":
            return cls.of(
                [
                    LossBurst(
                        start=0.25 * horizon, duration=0.2 * horizon,
                        bad_loss=0.9, fraction=1.0,
                    ),
                    LossBurst(
                        start=0.6 * horizon, duration=0.15 * horizon,
                        bad_loss=0.8, fraction=0.5,
                    ),
                    DuplicateDelivery(
                        start=0.0, duration=horizon, probability=0.15
                    ),
                    DeliveryJitter(start=0.0, duration=horizon),
                ],
                name=name,
            )
        if name == "crash-restore":
            return cls.of(
                [
                    ServerCrash(at_time=0.35 * horizon),
                    ServerCrash(at_time=0.7 * horizon),
                    LossBurst(
                        start=0.3 * horizon, duration=0.25 * horizon,
                        bad_loss=0.85, fraction=0.8,
                    ),
                ],
                name=name,
            )
        if name == "blackout-resync":
            return cls.of(
                [
                    Blackout(
                        start=0.3 * horizon, duration=0.25 * horizon,
                        fraction=0.3,
                    ),
                    LossBurst(
                        start=0.55 * horizon, duration=0.1 * horizon,
                        bad_loss=0.8,
                    ),
                ],
                name=name,
            )
        if name == "churn-storm":
            return cls.of(
                [
                    ChurnStorm(at_time=0.3 * horizon, joins=12, leaves=6),
                    ChurnStorm(at_time=0.6 * horizon, joins=4, leaves=10),
                    DeliveryJitter(start=0.0, duration=horizon),
                    DuplicateDelivery(
                        start=0.2 * horizon, duration=0.6 * horizon,
                        probability=0.25,
                    ),
                ],
                name=name,
            )
        raise ValueError(f"unknown fault schedule {name!r}")


STANDARD_SCHEDULES = ("burst-loss", "crash-restore", "blackout-resync", "churn-storm")
"""The canned schedule names swept by ``repro chaos`` (plus ``randomized``)."""
