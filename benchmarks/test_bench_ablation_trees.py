"""Ablation: number of loss-homogenized trees under a 4-point population.

The paper uses two loss classes.  With a richer (4-point) loss population,
does finer partitioning keep paying?  Two trees already capture most of
the gain; four capture a bit more.
"""

from repro.analysis import WKA_BKR, one_tree, proportional_trees, scheme_cost
from repro.experiments.report import Series

from bench_utils import emit

N, L, D = 65_536, 256, 4
# A 4-point population: rates and fractions.
POPULATION = ((0.30, 0.05), (0.20, 0.15), (0.05, 0.30), (0.01, 0.50))


def grouped_cost(groups):
    """Partition the 4 classes into ``groups`` trees (contiguous by rate);
    each tree's mixture reflects the classes pooled into it."""
    trees = []
    for group in groups:
        fraction = sum(POPULATION[i][1] for i in group)
        mixture = tuple(
            (POPULATION[i][0], POPULATION[i][1] / fraction) for i in group
        )
        trees.append((N * fraction, mixture))
    return scheme_cost(proportional_trees(trees, L), WKA_BKR, D)


def tree_count_series() -> Series:
    one = scheme_cost(one_tree(N, L, POPULATION), WKA_BKR, D)
    two = grouped_cost([(0, 1), (2, 3)])
    four = grouped_cost([(0,), (1,), (2,), (3,)])
    series = Series(
        title="Ablation — number of loss-homogenized trees (4-point population)",
        x_label="trees",
        x_values=[1.0, 2.0, 4.0],
    )
    series.add_column("cost", [one, two, four])
    series.add_column(
        "gain-%", [0.0, (one - two) / one * 100, (one - four) / one * 100]
    )
    return series


def test_tree_count_ablation(benchmark):
    series = benchmark.pedantic(tree_count_series, rounds=1, iterations=1)
    emit("ablation_trees", series.format_table())

    costs = series.column("cost")
    assert costs[1] < costs[0]  # two trees beat one
    assert costs[2] < costs[1]  # four trees beat two (diminishing returns)
    gains = series.column("gain-%")
    assert gains[2] - gains[1] < gains[1] - gains[0]
