"""Section 4.4: loss homogenization under proactive-FEC transport.

The paper reports that with the [YLZL01] proactive-FEC transport the
loss-homogenized organization gains *more* than under WKA-BKR — up to
25.7% at ``ph = 20%``, ``pl = 2%``, ``alpha = 0.1`` — because a block's
parity (proactive and reactive) is sized by its worst receivers.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.analysis import (
    Fec,
    FecParameters,
    loss_homogenized_trees,
    one_tree,
    scheme_cost,
)
from repro.experiments.defaults import (
    SECTION4_DEPARTURES,
    SECTION4_GROUP_SIZE,
    SECTION4_HIGH_LOSS,
    SECTION4_LOW_LOSS,
    TREE_DEGREE,
)
from repro.experiments.fig6 import mixture_for
from repro.experiments.parallel import parallel_map
from repro.experiments.report import Series


def default_alpha_grid() -> list:
    return [round(0.05 * i, 2) for i in range(0, 21)]


def _fec_gain_point(item: Tuple) -> Tuple[float, float]:
    """(one-tree, homogenized) FEC costs at one alpha; picklable."""
    alpha, group_size, departures, degree, high_loss, low_loss, params = item
    mixture = mixture_for(alpha, high_loss, low_loss)
    return tuple(
        scheme_cost(build(group_size, departures, mixture), Fec(params), degree)
        for build in (one_tree, loss_homogenized_trees)
    )


def fec_gain_series(
    alpha_values: Optional[Iterable[float]] = None,
    group_size: int = SECTION4_GROUP_SIZE,
    departures: int = SECTION4_DEPARTURES,
    degree: int = TREE_DEGREE,
    high_loss: float = SECTION4_HIGH_LOSS,
    low_loss: float = SECTION4_LOW_LOSS,
    params: FecParameters = FecParameters(),
    workers: int = 1,
) -> Series:
    """Proactive-FEC rekeying cost (# keys) and homogenization gain vs alpha."""
    alphas = list(alpha_values) if alpha_values is not None else default_alpha_grid()
    series = Series(
        title="Section 4.4 — proactive-FEC rekeying cost vs fraction of high-loss receivers",
        x_label="alpha",
        x_values=[float(a) for a in alphas],
    )
    points = parallel_map(
        _fec_gain_point,
        [
            (alpha, group_size, departures, degree, high_loss, low_loss, params)
            for alpha in alphas
        ],
        workers,
    )
    one = [p[0] for p in points]
    homog = [p[1] for p in points]
    gain = [
        (o - h) / o * 100 if o else 0.0 for o, h in zip(one, homog)
    ]
    series.add_column("one-keytree", one)
    series.add_column("loss-homogenized", homog)
    series.add_column("gain-%", gain)
    series.notes.append(
        "paper: up to 25.7% gain at alpha=0.1 — larger than under WKA-BKR, "
        "since FEC parity is sized by each block's worst receivers"
    )
    return series


if __name__ == "__main__":  # pragma: no cover - manual runner
    print(fec_gain_series().format_table())
