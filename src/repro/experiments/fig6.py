"""Fig. 6: impact of group loss heterogeneity under WKA-BKR.

Sweeps the fraction ``alpha`` of high-loss receivers (ph = 20%, pl = 2%,
N = 65536, L = 256, d = 4) and compares the one-keytree scheme, a
two-random-keytree control, and the two-loss-homogenized-keytree scheme.
Expected shape (paper, Section 4.3.1(a)): random partitioning is slightly
*worse* than one tree; loss homogenization wins by up to ~12.1% with the
peak near alpha = 0.3; all schemes coincide at alpha = 0 and alpha = 1.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.analysis import (
    WKA_BKR,
    loss_homogenized_trees,
    one_tree,
    random_trees,
    scheme_cost,
)
from repro.experiments.defaults import (
    SECTION4_DEPARTURES,
    SECTION4_GROUP_SIZE,
    SECTION4_HIGH_LOSS,
    SECTION4_LOW_LOSS,
    TREE_DEGREE,
)
from repro.experiments.report import Series


def default_alpha_grid() -> list:
    return [round(0.05 * i, 2) for i in range(0, 21)]


def mixture_for(alpha: float, high: float = SECTION4_HIGH_LOSS, low: float = SECTION4_LOW_LOSS):
    """The two-point loss mixture at high-loss fraction ``alpha``."""
    pairs = []
    if alpha > 0:
        pairs.append((high, alpha))
    if alpha < 1:
        pairs.append((low, 1.0 - alpha))
    return tuple(pairs)


def fig6_series(
    alpha_values: Optional[Iterable[float]] = None,
    group_size: int = SECTION4_GROUP_SIZE,
    departures: int = SECTION4_DEPARTURES,
    degree: int = TREE_DEGREE,
    high_loss: float = SECTION4_HIGH_LOSS,
    low_loss: float = SECTION4_LOW_LOSS,
) -> Series:
    """WKA-BKR rekeying cost (# keys) vs fraction of high-loss receivers."""
    alphas = list(alpha_values) if alpha_values is not None else default_alpha_grid()
    series = Series(
        title="Fig. 6 — WKA-BKR rekeying cost (#keys) vs fraction of high-loss receivers",
        x_label="alpha",
        x_values=[float(a) for a in alphas],
    )
    mixtures = [mixture_for(a, high_loss, low_loss) for a in alphas]
    for name, build in (
        ("one-keytree", one_tree),
        ("two-random-keytrees", random_trees),
        ("two-loss-homogenized", loss_homogenized_trees),
    ):
        series.add_column(
            name,
            [
                scheme_cost(build(group_size, departures, m), WKA_BKR, degree)
                for m in mixtures
            ],
        )
    series.notes.append(
        "paper: random split slightly worse than one tree; homogenized wins "
        "up to ~12.1% (peak near alpha=0.3); all equal at alpha=0 and 1"
    )
    return series


if __name__ == "__main__":  # pragma: no cover - manual runner
    print(fig6_series().format_table())
