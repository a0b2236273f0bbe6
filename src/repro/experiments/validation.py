"""Simulation-vs-model cross validation (our addition).

The paper's evaluation is purely analytic (its stated limitation); this
module runs the full discrete-event system at laptop scale and checks that
the measured costs track the analytic predictions:

* ``validate_batch_cost`` — measured encrypted keys per batch on a real
  key tree under uniform random departures vs Appendix A's ``Ne(N, L)``;
* ``validate_two_partition`` — measured per-period cost of the one-keytree
  and two-partition servers under the two-class workload vs the Section
  3.3 steady-state model;
* ``validate_wka_transport`` — measured WKA-BKR keys-on-the-wire over the
  lossy channel vs Appendix B's ``E[V]``.

The simulated trees are *not* the model's idealized full trees (splits,
splices and churn roughen them), so agreement is expected within each
check's declared tolerance (:data:`TOLERANCES`), not exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.batchcost import expected_batch_cost
from repro.analysis import TwoPartitionParameters, scheme_costs, steady_state
from repro.analysis.wka import wka_rekey_cost
from repro.keytree.flat import FlatKeyTree, FlatRekeyer
from repro.members.durations import TwoClassDuration
from repro.network.channel import MulticastChannel
from repro.network.loss import BernoulliLoss
from repro.server.onetree import OneTreeServer
from repro.server.twopartition import TwoPartitionServer
from repro.sim.simulation import GroupRekeyingSimulation, SimulationConfig
from repro.transport.session import TransportTask
from repro.transport.wka_bkr import WkaBkrProtocol


@dataclass(frozen=True)
class ValidationResult:
    """One model-vs-simulation comparison."""

    label: str
    predicted: float
    measured: float

    @property
    def relative_error(self) -> float:
        if self.predicted == 0:
            return 0.0 if self.measured == 0 else float("inf")
        return abs(self.measured - self.predicted) / self.predicted

    def __str__(self) -> str:  # pragma: no cover - formatting
        return (
            f"{self.label}: predicted={self.predicted:.1f} "
            f"measured={self.measured:.1f} "
            f"error={self.relative_error * 100:.1f}%"
        )


def validate_batch_cost(
    group_size: int = 1024,
    departures: int = 32,
    degree: int = 4,
    batches: int = 30,
    seed: int = 7,
) -> ValidationResult:
    """Measured batch-rekey cost on a real tree vs ``Ne(N, L)``.

    Each trial removes ``departures`` uniformly random members and admits
    the same number of joiners in one batch (the model's J = L regime),
    on a freshly built tree of ``group_size`` members.
    """
    rng = random.Random(seed)
    total = 0
    # Cost-only: nothing reads a ciphertext, so no wrap is ever sealed.
    for batch in range(batches):
        tree = FlatKeyTree(degree=degree, name=f"val{batch}")
        rekeyer = FlatRekeyer(tree)
        members = [f"v{batch}m{i}" for i in range(group_size)]
        rekeyer.rekey_batch(joins=[(m, None) for m in members])
        victims = rng.sample(members, departures)
        joiners = [(f"v{batch}j{i}", None) for i in range(departures)]
        message = rekeyer.rekey_batch(joins=joiners, departures=victims)
        total += message.cost
    return ValidationResult(
        label=f"Ne(N={group_size}, L={departures}, d={degree})",
        predicted=expected_batch_cost(group_size, departures, degree),
        measured=total / batches,
    )


def validate_two_partition(
    scheme: str = "tt",
    group_size: int = 1500,
    degree: int = 4,
    k_periods: int = 5,
    rekey_period: float = 60.0,
    alpha: float = 0.8,
    short_mean: float = 120.0,
    long_mean: float = 1_800.0,
    horizon_periods: int = 200,
    warmup_periods: int = 100,
    seed: int = 11,
) -> ValidationResult:
    """Measured steady-state per-period cost vs the Section 3.3 model.

    The arrival rate is chosen so the model's steady-state population is
    ``group_size``; the simulation is measured after a warm-up window.
    The default class means mix faster than Table 1's (Ml of 3 hours needs
    ~500 periods to reach steady state) so a laptop-scale horizon really
    is in the regime the model describes.
    """
    params = TwoPartitionParameters(
        group_size=group_size,
        degree=degree,
        rekey_period=rekey_period,
        k_periods=k_periods,
        short_mean=short_mean,
        long_mean=long_mean,
        alpha=alpha,
    )
    state = steady_state(params)
    arrival_rate = state.joins / rekey_period

    if scheme == "one":
        server = OneTreeServer(degree=degree)
        predicted = scheme_costs(params)["one-keytree"]
    else:
        server = TwoPartitionServer(
            mode=scheme, s_period=k_periods * rekey_period, degree=degree
        )
        predicted = scheme_costs(params)[f"{scheme.upper()}-scheme"]

    config = SimulationConfig(
        arrival_rate=arrival_rate,
        rekey_period=rekey_period,
        horizon=horizon_periods * rekey_period,
        duration_model=TwoClassDuration(short_mean, long_mean, alpha),
        verify=False,
        seed=seed,
    )
    sim = GroupRekeyingSimulation(server, config)
    metrics = sim.run()
    return ValidationResult(
        label=f"{scheme}-scheme steady-state cost (N≈{group_size})",
        predicted=predicted,
        measured=metrics.mean_cost(skip=warmup_periods),
    )


def validate_wka_transport(
    group_size: int = 256,
    departures: int = 16,
    degree: int = 4,
    loss_rate: float = 0.1,
    trials: int = 20,
    seed: int = 13,
) -> ValidationResult:
    """Measured WKA-BKR keys-on-the-wire vs Appendix B's ``E[V]``.

    A homogeneous-loss audience receives one batch rekeying per trial.
    """
    rng = random.Random(seed)
    protocol = WkaBkrProtocol(keys_per_packet=8)
    total = 0
    # The transport counts keys/packets but never reads ciphertexts, so
    # no wrap is sealed here either.
    for trial in range(trials):
        tree = FlatKeyTree(degree=degree, name=f"wka{trial}")
        rekeyer = FlatRekeyer(tree)
        members = [f"w{trial}m{i}" for i in range(group_size)]
        rekeyer.rekey_batch(joins=[(m, None) for m in members])
        victims = rng.sample(members, departures)
        joiners = [(f"w{trial}j{i}", None) for i in range(departures)]
        message = rekeyer.rekey_batch(joins=joiners, departures=victims)

        channel = MulticastChannel(seed=seed * 1000 + trial)
        survivors = [m for m in members if m not in victims]
        for m in survivors:
            channel.subscribe(m, BernoulliLoss(loss_rate))
        # Each row reaches the survivors under the node whose key wraps
        # it, read off the tree; the joiners are not listening.
        joining, built = {m for m, __ in joiners}, {}
        named = [
            set(tree.members_under(wrapping_id, built)) - joining
            for wrapping_id in message.encrypted_keys.wrapping_ids
        ]
        audiences = {row: audience for row, audience in enumerate(named) if audience}
        task = TransportTask(message.encrypted_keys, audiences)
        outcome = protocol.run(task, channel)
        total += outcome.keys_sent
    mixture = ((loss_rate, 1.0),)
    return ValidationResult(
        label=f"WKA-BKR E[V] (N={group_size}, L={departures}, p={loss_rate})",
        predicted=wka_rekey_cost(group_size, departures, mixture, degree),
        measured=total / trials,
    )


def _run_validation(name: str) -> ValidationResult:
    """Dispatch one named check; module-level so process pools pickle it."""
    if name == "batch-cost":
        return validate_batch_cost()
    if name == "one-keytree":
        return validate_two_partition("one")
    if name == "tt-scheme":
        return validate_two_partition("tt")
    if name == "qt-scheme":
        return validate_two_partition("qt")
    if name == "wka-transport":
        return validate_wka_transport()
    raise ValueError(f"unknown validation {name!r}")


#: Each check's bound on relative error, declared once: tier-1 and
#: ``repro validate`` (``--fast`` too) fail a check at or above it.
#: Appendix A is exact on a full tree; the steady-state and WKA-BKR
#: checks carry churn-roughened trees and loss draws.  Each bound is the
#: tightest that an earlier copy of the check enforced.
TOLERANCES = {
    "batch-cost": 0.05,
    "one-keytree": 0.15,
    "tt-scheme": 0.15,
    "qt-scheme": 0.15,
    "wka-transport": 0.20,
}
VALIDATION_NAMES = tuple(TOLERANCES)


def run_all_validations(workers: int = 1) -> Dict[str, ValidationResult]:
    """The full cross-validation suite, keyed by check name.

    ``workers > 1`` runs the five checks over a process pool.  Every check
    carries its own explicit seed, so fan-out changes wall-clock time but
    not a single measured number.
    """
    from repro.experiments.parallel import parallel_map

    results = parallel_map(_run_validation, VALIDATION_NAMES, workers)
    return dict(zip(VALIDATION_NAMES, results))


def fast_validations() -> Dict[str, ValidationResult]:
    """Appendix A and B at small configurations (``repro validate --fast``)."""
    return {
        "batch-cost": validate_batch_cost(group_size=256, departures=16, batches=10),
        "wka-transport": validate_wka_transport(
            group_size=128, departures=8, trials=5
        ),
    }


def over_tolerance(results: Dict[str, ValidationResult]) -> List[str]:
    """The checks in ``results`` whose error is not below their tolerance."""
    return [
        name
        for name, result in results.items()
        if not result.relative_error < TOLERANCES[name]
    ]


def validation_table(results: Dict[str, ValidationResult]) -> str:
    """One line per check: predicted, measured, error and its tolerance."""
    lines = ["Model-vs-simulation cross validation"]
    for name, result in results.items():
        lines.append(f"  {result} tolerance={TOLERANCES[name] * 100:.0f}%")
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover - manual runner
    print(validation_table(run_all_validations()))
