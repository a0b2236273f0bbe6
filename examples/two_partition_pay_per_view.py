"""A pay-per-view session: one-keytree vs the two-partition schemes.

Simulates the workload the paper's introduction motivates — a large
audience where most viewers sample the stream briefly (class Cs, mean 3
minutes) and a core stays for hours (class Cl) — and measures the actual
per-period rekeying bandwidth of every scheme on the same arrival seed.

Run:  python examples/two_partition_pay_per_view.py

Set REPRO_EXAMPLE_FAST=1 for a seconds-scale run (smaller audience and
horizon; the numbers are noisier but the mechanics are identical) — the
test suite's smoke runner uses this.
"""

import os

from repro import OneTreeServer, TwoPartitionServer
from repro.analysis import TwoPartitionParameters, scheme_costs
from repro.members import TwoClassDuration
from repro.sim import GroupRekeyingSimulation, SimulationConfig

FAST = os.environ.get("REPRO_EXAMPLE_FAST", "") not in ("", "0")
REKEY_PERIOD = 60.0
K_PERIODS = 5
ALPHA = 0.85
SHORT_MEAN = 180.0
LONG_MEAN = 7_200.0
ARRIVAL_RATE = 0.5 if FAST else 4.0  # joins per second
HORIZON = (12 if FAST else 90) * REKEY_PERIOD
WARMUP = 4 if FAST else 45  # periods to discard


def build_servers():
    s_period = K_PERIODS * REKEY_PERIOD
    return {
        "one-keytree": OneTreeServer(degree=4),
        "QT-scheme": TwoPartitionServer(mode="qt", s_period=s_period, degree=4),
        "TT-scheme": TwoPartitionServer(mode="tt", s_period=s_period, degree=4),
        "PT-scheme": TwoPartitionServer(mode="pt", degree=4),
    }


def main() -> None:
    durations = TwoClassDuration(SHORT_MEAN, LONG_MEAN, ALPHA)
    print(f"workload: alpha={ALPHA}, Ms={SHORT_MEAN:.0f}s, Ml={LONG_MEAN:.0f}s, "
          f"{ARRIVAL_RATE:g} joins/s, Tp={REKEY_PERIOD:.0f}s, K={K_PERIODS}")
    print(f"{'scheme':14s} {'mean cost/period':>17s} {'vs one-keytree':>15s} "
          f"{'group size':>11s}")

    baseline = None
    measured = {}
    for name, server in build_servers().items():
        config = SimulationConfig(
            arrival_rate=ARRIVAL_RATE,
            rekey_period=REKEY_PERIOD,
            horizon=HORIZON,
            duration_model=durations,
            verify=False,  # verification is O(members) per period; see tests
            seed=42,
        )
        metrics = GroupRekeyingSimulation(server, config).run()
        cost = metrics.mean_cost(skip=WARMUP)
        measured[name] = cost
        if baseline is None:
            baseline = cost
        gain = (baseline - cost) / baseline * 100
        print(f"{name:14s} {cost:17.1f} {gain:14.1f}% "
              f"{metrics.mean_group_size(skip=WARMUP):11.0f}")

    # Compare with the Section 3.3 analytic model at the simulated scale.
    mean_size = ARRIVAL_RATE * (ALPHA * SHORT_MEAN + (1 - ALPHA) * LONG_MEAN)
    params = TwoPartitionParameters(
        group_size=mean_size,
        degree=4,
        rekey_period=REKEY_PERIOD,
        k_periods=K_PERIODS,
        short_mean=SHORT_MEAN,
        long_mean=LONG_MEAN,
        alpha=ALPHA,
    )
    print("\nanalytic model at the same operating point:")
    model = scheme_costs(params)
    for name, cost in model.items():
        line = f"  {name:14s} predicted {cost:9.1f}"
        if name in measured:
            line += f"   simulated {measured[name]:9.1f}"
        print(line)


if __name__ == "__main__":
    main()
