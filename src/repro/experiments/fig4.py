"""Fig. 4: impact of membership-duration heterogeneity (alpha sweep).

Sweeps the class-Cs fraction ``alpha`` from 0 to 1 at K = 10.  Expected
shape (paper, Section 3.3.2(b)): QT and TT beat the one-keytree scheme for
alpha > 0.6 and lose for alpha <= 0.4; the best improvement is ~31.4% at
alpha = 0.9; PT always wins.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.analysis import TwoPartitionParameters, scheme_costs
from repro.experiments.defaults import TABLE1
from repro.experiments.fig3 import SCHEMES
from repro.experiments.report import Series


def default_alpha_grid() -> list:
    return [round(0.05 * i, 2) for i in range(0, 21)]


def fig4_series(
    alpha_values: Optional[Iterable[float]] = None,
    params: Optional[TwoPartitionParameters] = None,
) -> Series:
    """Rekeying cost (# keys) per periodic rekeying vs ``alpha``."""
    base = params if params is not None else TABLE1
    alphas = list(alpha_values) if alpha_values is not None else default_alpha_grid()
    series = Series(
        title="Fig. 4 — key-server rekeying cost (#keys) vs fraction of class Cs members",
        x_label="alpha",
        x_values=[float(a) for a in alphas],
    )
    points = [scheme_costs(base.with_alpha(a)) for a in alphas]
    for name in SCHEMES:
        series.add_column(name, [point[name] for point in points])
    series.notes.append(
        "paper: QT/TT beat one-keytree for alpha>0.6, lose for alpha<=0.4; "
        "peak improvement ~31.4% at alpha=0.9"
    )
    return series


if __name__ == "__main__":  # pragma: no cover - manual runner
    print(fig4_series().format_table())
