"""Ablation: where the QT/TT crossover sits.

The paper states the QT-scheme "is advantageous when the S-partition has a
small number of members" and the TT-scheme when it is large.  Sweeping K
moves the steady-state S-partition occupancy, exposing the crossover.
"""

from repro.analysis import TwoPartitionParameters, scheme_costs, steady_state
from repro.experiments.report import Series

from bench_utils import emit


def crossover_series() -> Series:
    k_values = list(range(1, 21))
    series = Series(
        title="Ablation — QT vs TT across S-partition occupancy (K sweep)",
        x_label="K",
        x_values=[float(k) for k in k_values],
    )
    ns, qt, tt = [], [], []
    for k in k_values:
        params = TwoPartitionParameters(k_periods=k)
        costs = scheme_costs(params)
        ns.append(steady_state(params).n_short)
        qt.append(costs["QT-scheme"])
        tt.append(costs["TT-scheme"])
    series.add_column("Ns", ns)
    series.add_column("QT-cost", qt)
    series.add_column("TT-cost", tt)
    return series


def test_qt_vs_tt_crossover(benchmark):
    series = benchmark.pedantic(crossover_series, rounds=1, iterations=1)
    emit("ablation_qt_vs_tt", series.format_table())

    qt = series.column("QT-cost")
    tt = series.column("TT-cost")
    # Small S-partition: the queue wins; large S-partition: the tree wins.
    assert qt[0] < tt[0]
    assert tt[-1] < qt[-1]
    # The crossover exists and is unique-ish: once TT leads it keeps it.
    lead = [t < q for q, t in zip(qt, tt)]
    first_tt = lead.index(True)
    assert all(lead[first_tt:])
