"""Fault injection, bounded retry, and recovery for the rekeying system.

The paper's reliable-transport analysis (Appendix B, Section 4) assumes
retransmission rounds eventually satisfy every receiver.  Real multicast
deployments do not: loss rates spike in correlated bursts, receivers black
out for whole rekey epochs, servers crash mid-batch, and churn arrives in
storms.  This package makes those failure modes first-class so the system
can be *proven* to degrade gracefully and recover:

* :mod:`repro.faults.schedule` — composable, seeded fault schedules
  (burst-loss windows via Gilbert–Elliott overrides, receiver blackouts,
  duplicate delivery, delivery-order perturbation, server crash points,
  churn storms) expressed in simulation time;
* :mod:`repro.faults.channel` — :class:`FaultyChannel`, a drop-in
  :class:`~repro.network.channel.MulticastChannel` that resolves the open
  schedule windows once per multicast and applies them to the delivery
  draws of the receivers they cover, without touching steady-state
  semantics;
* :mod:`repro.faults.retry` — :class:`RetryPolicy`: hard round caps,
  exponential inter-round backoff in simulated time, and per-receiver
  abandonment thresholds for the NACK transports (multi-send, which takes
  no policy, degrades the same way at its own round cap);
* :mod:`repro.faults.recovery` — the per-receiver epoch state machine
  (``IN_SYNC -> OUT_OF_SYNC -> IN_SYNC``: abandoned by the transport,
  then caught up over unicast) and the measured catch-up events that
  close the loop;
* :mod:`repro.faults.chaos` — the randomized chaos-conformance harness
  behind ``python -m repro chaos``, which asserts the security invariants
  of :mod:`repro.testing` under all of the above and emits
  ``BENCH_chaos.json`` with recovery latency/cost distributions.
"""

from repro.faults.channel import FaultyChannel
from repro.faults.recovery import (
    RecoveryEvent,
    SyncState,
    SyncTracker,
)
from repro.faults.retry import RetryPolicy
from repro.faults.schedule import (
    Blackout,
    ChurnStorm,
    DeliveryJitter,
    DuplicateDelivery,
    FaultSchedule,
    LossBurst,
    ServerCrash,
)

__all__ = [
    "Blackout",
    "ChurnStorm",
    "DeliveryJitter",
    "DuplicateDelivery",
    "FaultSchedule",
    "FaultyChannel",
    "LossBurst",
    "RecoveryEvent",
    "RetryPolicy",
    "ServerCrash",
    "SyncState",
    "SyncTracker",
]
