"""Fig. 7: impact of misplacing members across the loss trees.

At ``alpha = 0.2`` (ph = 20%, pl = 2%), sweeps the misplaced fraction
``beta``: the nominally-high tree holds ``beta`` low-loss members (and the
low tree the same count of high-loss members).  Expected shape (paper,
Section 4.3.1(b)): the gain decays as beta grows, roughly reaching the
one-keytree cost near beta = 0.8, then *improves* again toward beta = 1
(the trees have then fully swapped populations).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.analysis import WKA_BKR, misplaced_trees, one_tree, scheme_cost
from repro.experiments.defaults import (
    SECTION4_DEPARTURES,
    SECTION4_GROUP_SIZE,
    SECTION4_HIGH_LOSS,
    SECTION4_LOW_LOSS,
    TREE_DEGREE,
)
from repro.experiments.fig6 import mixture_for
from repro.experiments.report import Series


def default_beta_grid() -> list:
    return [round(0.05 * i, 2) for i in range(0, 21)]


def fig7_series(
    beta_values: Optional[Iterable[float]] = None,
    alpha: float = 0.2,
    group_size: int = SECTION4_GROUP_SIZE,
    departures: int = SECTION4_DEPARTURES,
    degree: int = TREE_DEGREE,
    high_loss: float = SECTION4_HIGH_LOSS,
    low_loss: float = SECTION4_LOW_LOSS,
) -> Series:
    """Rekeying cost (# keys) vs misplaced fraction ``beta``."""
    betas = list(beta_values) if beta_values is not None else default_beta_grid()
    mixture = mixture_for(alpha, high_loss, low_loss)
    baseline = scheme_cost(one_tree(group_size, departures, mixture), WKA_BKR, degree)

    def misplaced(beta: float) -> float:
        partitions = misplaced_trees(
            group_size, departures, alpha, high_loss, low_loss, beta
        )
        return scheme_cost(partitions, WKA_BKR, degree)

    correctly = misplaced(0.0)
    series = Series(
        title="Fig. 7 — rekeying cost (#keys) vs fraction of misplaced receivers",
        x_label="beta",
        x_values=[float(b) for b in betas],
    )
    series.add_column("one-keytree", [baseline] * len(betas))
    series.add_column("mis-partitioned", [misplaced(b) for b in betas])
    series.add_column("correctly-partitioned", [correctly] * len(betas))
    series.notes.append(
        "paper: gain decays with beta, ~parity with one-keytree near "
        "beta=0.8, improves again at beta=1 (populations fully swapped)"
    )
    return series


if __name__ == "__main__":  # pragma: no cover - manual runner
    print(fig7_series().format_table())
