"""The chaos conformance harness behind ``python -m repro chaos``.

Runs randomized and canned fault schedules against every scheme and
checks the *ciphertext-level* security invariants under fire:

* every in-sync member decrypts data-plane traffic under the exact
  current group key, every epoch — through loss bursts, blackouts,
  duplicate delivery, reordering, server crash-and-restore, and churn
  storms;
* evicted members act as adversaries: they keep absorbing every multicast
  rekey payload after eviction, and still must not reach the current DEK
  (forward secrecy);
* joiners never hold a pre-join group key, even transitively (backward
  secrecy);
* abandoned receivers recover over unicast, and their recovery latency
  and key cost are measured into the report.

Violations are *collected*, not raised — a chaos run's job is to finish
and report everything it saw.  The emitted ``BENCH_chaos.json`` carries
per-run recovery-latency/cost distributions, fault counters, and the
registry's operation counts, following the ``BENCH_*.json`` report
convention.
"""

from __future__ import annotations

import json
import platform
import sys
from typing import Callable, Dict, List, Optional, Sequence

from repro.faults.recovery import latency_summary
from repro.faults.retry import RetryPolicy
from repro.faults.schedule import STANDARD_SCHEDULES, FaultSchedule
from repro.members.durations import TwoClassDuration
from repro.members.population import LossPopulation
from repro.obs import metrics as obs_metrics
from repro.server import build_server
from repro.server.base import BatchResult
from repro.sim.simulation import GroupRekeyingSimulation, SimulationConfig
from repro.testing.invariants import (
    InvariantViolation,
    check_backward_secrecy,
    check_batch_accounting,
    check_forward_secrecy,
    check_member_decrypts,
)

#: the registry counters each run reports, as deltas over the run
PINNED_COUNTERS = (
    "server.rekeys",
    "server.catchups",
    "server.catchup_keys",
    "member.keys_learned",
)

#: schemes the default chaos sweep covers (CLI ``--schemes`` overrides);
#: ``--quick`` takes the first two, so keep the reference pair up front
STANDARD_SCHEMES = ("one", "tt", "pt", "losshomog", "qt")


class ChaosSimulation(GroupRekeyingSimulation):
    """A rekeying simulation that verifies adversarially and never aborts.

    Replaces the parent's fail-fast ``_verify`` with ciphertext-level
    checks from :mod:`repro.testing.invariants`, collected into
    :attr:`violations` so a fault schedule's full horizon always runs.
    Departed members double as eavesdropping adversaries: they absorb
    every post-eviction multicast payload before the forward-secrecy
    check.  The checks cover the tracked receivers; the sweep's groups
    never reach :data:`~repro.sim.simulation.TRACKED_RECEIVERS` joins, so
    that is every receiver.
    """

    def __init__(self, server, config=None, join_attributes=None) -> None:
        super().__init__(server, config, join_attributes)
        self.violations: List[str] = []
        #: group-key secrets of every closed epoch, in epoch order
        self._dek_history: List[bytes] = []
        #: member_id -> how many epochs had closed when it registered
        self._pre_join_epochs: Dict[str, int] = {}

    def _admit_new_member(self) -> str:
        member_id = super()._admit_new_member()
        self._pre_join_epochs[member_id] = len(self._dek_history)
        return member_id

    def _collect(self, check: Callable[[], None]) -> None:
        try:
            check()
        except InvariantViolation as violation:
            self.violations.append(str(violation))

    def _verify(self, result: BatchResult) -> None:
        dek = self.server.group_key()
        epoch = result.epoch
        self._collect(lambda: check_batch_accounting(result))
        desynced = self._desynced()
        for member_id, member in self.tracked.items():
            if member_id in desynced:
                continue  # legitimately behind until unicast catch-up
            self._collect(
                lambda m=member: check_member_decrypts(m, dek, epoch=epoch)
            )
            before = self._pre_join_epochs.get(member_id, 0)
            self._collect(
                lambda m=member, n=before: check_backward_secrecy(
                    m, self._dek_history[:n], epoch=epoch
                )
            )
        # Evicted members keep listening: feed them the multicast payload
        # they would have overheard, then require it bought them nothing.
        if result.encrypted_keys:
            index = result.index()
            for adversary in self.departed:
                adversary.absorb(result.encrypted_keys, index=index)
        for adversary in self.departed:
            self._collect(
                lambda a=adversary: check_forward_secrecy(a, dek, epoch=epoch)
            )
        if not self._dek_history or self._dek_history[-1] != dek.secret:
            self._dek_history.append(dek.secret)
        self.metrics.verification_checks += 1


def run_chaos_case(
    scheme: str,
    schedule_name: str,
    seed: int = 7,
    horizon: float = 1800.0,
    arrival_rate: float = 0.05,
    rekey_period: float = 60.0,
    retry: Optional[RetryPolicy] = None,
) -> Dict[str, object]:
    """One scheme under one fault schedule; returns its report entry."""
    if schedule_name == "randomized":
        schedule = FaultSchedule.randomized(seed, horizon)
    else:
        schedule = FaultSchedule.named(schedule_name, horizon)
    if retry is None:
        retry = RetryPolicy(max_rounds=8, abandon_after=4)
    from repro.transport.wka_bkr import WkaBkrProtocol

    config = SimulationConfig(
        arrival_rate=arrival_rate,
        rekey_period=rekey_period,
        horizon=horizon,
        duration_model=TwoClassDuration(),
        loss_population=LossPopulation.two_point(),
        transport=WkaBkrProtocol(keys_per_packet=16, retry=retry),
        verify=True,
        seed=seed,
        fault_schedule=schedule,
    )
    sim = ChaosSimulation(build_server(scheme), config)
    # Count into the active registry when there is one (``repro chaos
    # --serve/--metrics``), so the outer run still sees every increment.
    with obs_metrics.collecting(obs_metrics.active_registry()) as registry:
        before = [registry.counter_total(name) for name in PINNED_COUNTERS]
        metrics = sim.run()
        counters = {
            name: registry.counter_total(name) - start
            for name, start in zip(PINNED_COUNTERS, before)
        }
    channel = sim.channel
    return {
        "scheme": scheme,
        "schedule": schedule.name,
        "seed": seed,
        "rekeyings": metrics.rekey_count,
        "joins": metrics.joins_total,
        "departures": metrics.departures_total,
        "server_keys": metrics.total_cost,
        "wire_keys": metrics.total_transport_keys,
        "verification_checks": metrics.verification_checks,
        "server_crashes": metrics.server_crashes,
        "abandoned": metrics.abandoned_total,
        "recoveries": latency_summary(sim.sync_tracker.events),
        "time_to_new_dek": (
            sim.latency.summary() if sim.latency is not None else {"count": 0}
        ),
        "sync_counts": sim.sync_tracker.counts() if sim.sync_tracker else {},
        "channel_faults": {
            "blackout_losses": getattr(channel, "blackout_losses", 0),
            "burst_losses": getattr(channel, "burst_losses", 0),
            "duplicates_delivered": getattr(channel, "duplicates_delivered", 0),
            "jittered_packets": getattr(channel, "jittered_packets", 0),
        },
        "counters": counters,
        "violations": list(sim.violations),
    }


def run_chaos(
    seed: int = 7,
    horizon: float = 1800.0,
    schemes: Sequence[str] = STANDARD_SCHEMES,
    schedules: Optional[Sequence[str]] = None,
    out_path: Optional[str] = "BENCH_chaos.json",
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """The full chaos sweep: every scheme under every fault schedule.

    Writes ``BENCH_chaos.json`` (unless ``out_path`` is None) and returns
    the report dict.  ``report["violations_total"]`` is the headline: a
    healthy repository reports zero.
    """
    if schedules is None:
        schedules = tuple(STANDARD_SCHEDULES) + ("randomized",)
    runs: List[Dict[str, object]] = []
    for scheme in schemes:
        for schedule_name in schedules:
            if progress is not None:
                progress(f"chaos: {scheme} x {schedule_name} ...")
            runs.append(
                run_chaos_case(scheme, schedule_name, seed=seed, horizon=horizon)
            )
    report: Dict[str, object] = {
        "seed": seed,
        "horizon_s": horizon,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "runs": runs,
        "violations_total": sum(len(r["violations"]) for r in runs),
        "recoveries_total": sum(r["recoveries"].get("count", 0) for r in runs),
        "abandoned_total": sum(r["abandoned"] for r in runs),
        "abandoned_unrecovered_total": sum(
            r["time_to_new_dek"].get("abandoned_unrecovered", 0) for r in runs
        ),
        "server_crashes_total": sum(r["server_crashes"] for r in runs),
    }
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return report
