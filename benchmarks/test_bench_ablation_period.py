"""Ablation: rekey-period (Tp) sensitivity of the two-partition gains.

Batching amortizes more at longer periods; the ablation confirms the
partitioning gain survives across practical Tp choices (holding the
S-period Ts = K * Tp fixed at the Table 1 value of 600 s).
"""

from repro.analysis import TwoPartitionParameters, scheme_costs
from repro.experiments.report import Series

from bench_utils import emit

PERIODS = (15.0, 30.0, 60.0, 120.0, 300.0)
S_PERIOD = 600.0


def period_series() -> Series:
    series = Series(
        title="Ablation — rekey period Tp (Ts fixed at 600 s)",
        x_label="Tp",
        x_values=list(PERIODS),
    )
    base, tt, gain = [], [], []
    for period in PERIODS:
        params = TwoPartitionParameters(
            rekey_period=period, k_periods=int(S_PERIOD / period)
        )
        costs = scheme_costs(params)
        b = costs["one-keytree"]
        t = costs["TT-scheme"]
        base.append(b)
        tt.append(t)
        gain.append((b - t) / b * 100)
    series.add_column("one-keytree", base)
    series.add_column("TT-scheme", tt)
    series.add_column("TT-gain-%", gain)
    return series


def test_period_ablation(benchmark):
    series = benchmark.pedantic(period_series, rounds=1, iterations=1)
    emit("ablation_period", series.format_table())

    # Longer periods process bigger batches (higher absolute cost per
    # rekeying) ...
    assert series.column("one-keytree") == sorted(series.column("one-keytree"))
    # ... but the partitioning gain persists throughout.
    assert all(g > 15.0 for g in series.column("TT-gain-%"))
