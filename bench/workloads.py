"""The benchmark's four workloads: what runs, why, and the seeded generators.

Every input the program sees is drawn here from ``--seed``; the program
itself receives generated inputs only.  Servers are built with protocol
arguments alone (degree, mode, S-period, placement) so the benchmark
measures whatever the default execution path is.

Only the public surface of ``repro`` is used (see ``bench/README.md``
for the frozen list): no underscore-prefixed attribute is read.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Tuple

from repro import (
    GroupRekeyingSimulation,
    LossHomogenizedServer,
    OneTreeServer,
    ProactiveFecProtocol,
    SimulationConfig,
    TwoClassDuration,
    TwoPartitionServer,
    WkaBkrProtocol,
)
from repro.faults.schedule import ChurnStorm, FaultSchedule
from repro.members.population import LossPopulation

#: ``Tp``: simulated seconds between batch rekey points (Table 1).
REKEY_PERIOD = 60.0
#: Table 1 duration shape: Ms = 3 min, Ml = 3 h, 80% of joins short.
DURATIONS = TwoClassDuration(short_mean=180.0, long_mean=10_800.0, alpha=0.8)


class SteadyStateDuration:
    """Duration model whose first ``size`` draws are a steady-state census.

    A group that has been running forever holds class Cl with probability
    ``(1-a)Ml / (a Ms + (1-a) Ml)`` (long members accumulate), and by
    memorylessness each resident's *residual* lifetime is exponential
    with its class mean.  Drawing the pre-populated members this way
    makes the group stationary from the first epoch, so no long warm-up
    has to be paid for (or mistaken for set-up cost).  Later draws are
    fresh joins of the Table 1 mixture.
    """

    def __init__(self, size: int) -> None:
        self.census_left = size
        self.long_share = (1.0 - DURATIONS.alpha) * DURATIONS.long_mean / DURATIONS.mean

    def sample_with_class(self, rng: random.Random) -> Tuple[float, str]:
        if self.census_left <= 0:
            return DURATIONS.sample_with_class(rng)
        self.census_left -= 1
        if rng.random() < self.long_share:
            return rng.expovariate(1.0 / DURATIONS.long_mean), "Cl"
        return rng.expovariate(1.0 / DURATIONS.short_mean), "Cs"


def _simulation(server, size: int, seed: int, warmup: int, **config):
    """A simulation pre-populated with ``size`` members at t=0 whose
    ``run()`` covers exactly the warm-up epochs; the harness then steps
    the event loop one rekey period at a time."""
    return GroupRekeyingSimulation(
        server,
        SimulationConfig(
            arrival_rate=size / DURATIONS.mean,
            rekey_period=REKEY_PERIOD,
            horizon=warmup * REKEY_PERIOD,
            duration_model=SteadyStateDuration(size),
            seed=seed,
            # No channel fault windows: the storm is only the public way
            # to admit the whole census before the first rekey.
            fault_schedule=FaultSchedule.of([ChurnStorm(at_time=0.0, joins=size)]),
            **config,
        ),
    )


def _lossy(transport) -> dict:
    return dict(
        transport=transport,
        loss_population=LossPopulation.two_point(0.20, 0.02, 0.3),
        verify=True,
    )


def onetree_wka(size: int, seed: int, warmup: int):
    return _simulation(
        OneTreeServer(degree=4), size, seed, warmup,
        **_lossy(WkaBkrProtocol(keys_per_packet=16)),
    )


def losshomog_fec(size: int, seed: int, warmup: int):
    return _simulation(
        LossHomogenizedServer(degree=4, placement="loss"), size, seed, warmup,
        **_lossy(ProactiveFecProtocol(keys_per_packet=16, block_size=8)),
    )


def tt_costonly(size: int, seed: int, warmup: int):
    return _simulation(
        TwoPartitionServer(mode="tt", s_period=300, degree=4), size, seed, warmup,
        cost_only=True, deferred_wrap=True, verify=False,
    )


@dataclass
class EpochPlan:
    """One direct-drive epoch's membership changes."""

    leavers: List[str]  # every departure, evicted cohort included
    evicted: List[str]  # tracked members among them (must lose the DEK)
    joiners: List[str]  # every admission, new cohort included
    admitted: List[str]  # joiners that become tracked members


class ServerSchedule:
    """Seeded J = L churn for the direct-drive server workload.

    The group holds ``size`` members; each epoch ``batch`` leave and
    ``batch`` join (256, the paper's Section 4 default, unless the group
    is shrunk for a smoke run).
    ``COHORTS`` x ``cohort`` members are *tracked*: they get a real
    ``Member`` that absorbs every payload.  Each epoch the oldest cohort
    is evicted (it must end locked out of the new DEK) and a cohort of
    fresh joiners is tracked in its place; the other leavers are drawn
    uniformly from the untracked population.
    """

    COHORTS = 8

    def __init__(self, size: int, seed: int) -> None:
        self.rng = random.Random(seed)
        self.batch = min(256, max(16, size // 16))
        self.cohort = self.batch // self.COHORTS
        self.initial = [f"m{i}" for i in range(size)]
        tracked = self.rng.sample(self.initial, self.COHORTS * self.cohort)
        self.tracked: Deque[List[str]] = deque(
            tracked[i : i + self.cohort] for i in range(0, len(tracked), self.cohort)
        )
        chosen = set(tracked)
        self.untracked = [m for m in self.initial if m not in chosen]
        self.next_id = size

    def next_epoch(self) -> EpochPlan:
        evicted = self.tracked.popleft()
        leavers = list(evicted)
        for __ in range(self.batch - len(evicted)):
            slot = self.rng.randrange(len(self.untracked))
            leavers.append(self.untracked[slot])
            self.untracked[slot] = self.untracked[-1]
            self.untracked.pop()
        joiners = [f"m{self.next_id + i}" for i in range(self.batch)]
        self.next_id += self.batch
        admitted = joiners[: self.cohort]
        self.tracked.append(admitted)
        self.untracked.extend(joiners[self.cohort :])
        self.rng.shuffle(leavers)
        return EpochPlan(leavers, evicted, joiners, admitted)


def server_full(size: int, seed: int, warmup: int):
    return OneTreeServer(degree=4), ServerSchedule(size, seed)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str  # copied verbatim into BENCHMARK.json (selftest checks it)
    size: int
    smoke_size: int
    warmup: int  # warm-up epochs, counted in set-up
    make: Callable[[int, int, int], object]
    direct: bool = False  # driven by the harness instead of the simulator
    groups: int = 3  # groups an untraced run builds, warms up and measures in turn


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="onetree_wka_3k",
            why="The product's own end-to-end path at N=3000: one keytree, WKA-BKR over "
            "20%/2% loss, real members, verify on. Receiver and transport work dominate; "
            "a server-only change must not move it.",
            size=3000, smoke_size=300, warmup=5, make=onetree_wka, groups=6,
        ),
        Workload(
            name="server_full_64k",
            why="Direct drive of the one-keytree server at the paper's N=65536, J=L=256 "
            "per epoch, eager HMAC wraps through the wire codec to sampled members. "
            "Keytree, wrap and codec choices must show here.",
            size=65536, smoke_size=256, warmup=1, make=server_full, direct=True,
        ),
        Workload(
            name="tt_costonly_32k",
            why="Two-partition TT server at N=32768, cost-only with deferred wraps: tree "
            "marking, S-to-L migration, stitch and event loop; no HMAC, members or "
            "transport. Separates a keytree win from a crypto win.",
            size=32768, smoke_size=300, warmup=8, make=tt_costonly,
        ),
        Workload(
            name="losshomog_fec_2k",
            why="The paper's Section 4 loss-homogenized server over proactive FEC at "
            "N=2000: parity-block transport dominates. A WKA-only fix must not move it; "
            "a channel or Member fix moves it with onetree_wka_3k.",
            size=2000, smoke_size=200, warmup=5, make=losshomog_fec,
        ),
    )
}
