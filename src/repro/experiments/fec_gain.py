"""Section 4.4: loss homogenization under proactive-FEC transport.

The paper reports that with the [YLZL01] proactive-FEC transport the
loss-homogenized organization gains *more* than under WKA-BKR — up to
25.7% at ``ph = 20%``, ``pl = 2%``, ``alpha = 0.1`` — because a block's
parity (proactive and reactive) is sized by its worst receivers.
"""

from __future__ import annotations

from typing import Iterable, Optional

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
from repro.experiments.report import Series


#: Denser where the gain peaks (alpha = 0.1) than the other figures' grid.
DEFAULT_ALPHAS = (0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0)


def fec_gain_series(
    alpha_values: Optional[Iterable[float]] = None,
    group_size: int = SECTION4_GROUP_SIZE,
    departures: int = SECTION4_DEPARTURES,
    degree: int = TREE_DEGREE,
    high_loss: float = SECTION4_HIGH_LOSS,
    low_loss: float = SECTION4_LOW_LOSS,
    params: FecParameters = FecParameters(),
) -> Series:
    """Proactive-FEC rekeying cost (# keys) and homogenization gain vs alpha."""
    alphas = list(alpha_values if alpha_values is not None else DEFAULT_ALPHAS)
    series = Series(
        title="Section 4.4 — proactive-FEC rekeying cost vs fraction of high-loss receivers",
        x_label="alpha",
        x_values=[float(a) for a in alphas],
    )
    mixtures = [mixture_for(a, high_loss, low_loss) for a in alphas]
    one, homog = (
        [
            scheme_cost(build(group_size, departures, m), Fec(params), degree)
            for m in mixtures
        ]
        for build in (one_tree, loss_homogenized_trees)
    )
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
