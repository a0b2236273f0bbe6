"""Ablation: key-tree degree d and its effect on costs and gains.

The paper fixes d = 4.  This sweep shows the baseline batch cost and the
two-partition gains across degrees — the gain is a property of the
partitioning, not of one particular fan-out.
"""

from repro.analysis import TwoPartitionParameters, scheme_costs
from repro.experiments.report import Series

from bench_utils import emit

DEGREES = (2, 4, 8, 16)


def degree_series() -> Series:
    series = Series(
        title="Ablation — tree degree d (Table 1 operating point otherwise)",
        x_label="d",
        x_values=[float(d) for d in DEGREES],
    )
    base_costs, tt_gain, qt_gain = [], [], []
    for degree in DEGREES:
        costs = scheme_costs(TwoPartitionParameters(degree=degree))
        base = costs["one-keytree"]
        base_costs.append(base)
        tt_gain.append((base - costs["TT-scheme"]) / base * 100)
        qt_gain.append((base - costs["QT-scheme"]) / base * 100)
    series.add_column("one-keytree-cost", base_costs)
    series.add_column("TT-gain-%", tt_gain)
    series.add_column("QT-gain-%", qt_gain)
    return series


def test_degree_ablation(benchmark):
    series = benchmark.pedantic(degree_series, rounds=1, iterations=1)
    emit("ablation_degree", series.format_table())

    # Partitioning pays off at every practical degree.
    assert all(g > 10.0 for g in series.column("TT-gain-%"))
    assert all(g > 10.0 for g in series.column("QT-gain-%"))
