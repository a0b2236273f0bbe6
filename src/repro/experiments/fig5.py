"""Fig. 5: impact of group size on the relative rekeying-cost reduction.

Sweeps ``N`` from 1K to 256K at the Table 1 defaults and reports the
*fractional reduction* of QT and TT over the one-keytree scheme.  Expected
shape (paper, Section 3.3.2(c)): nearly flat curves, both schemes saving
more than 22% on average.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.analysis import TwoPartitionParameters, scheme_costs
from repro.experiments.defaults import TABLE1
from repro.experiments.report import Series

DEFAULT_SIZES = (1_024, 4_096, 16_384, 65_536, 262_144)


def fig5_series(
    group_sizes: Iterable[int] = DEFAULT_SIZES,
    params: Optional[TwoPartitionParameters] = None,
) -> Series:
    """Relative rekeying-cost reduction (fraction of baseline) vs ``N``."""
    base = params if params is not None else TABLE1
    sizes = list(group_sizes)
    series = Series(
        title="Fig. 5 — relative rekeying-cost reduction vs group size N",
        x_label="N",
        x_values=[float(n) for n in sizes],
    )
    points = [scheme_costs(base.with_group_size(float(n))) for n in sizes]
    for name in ("QT-scheme", "TT-scheme"):
        series.add_column(
            name,
            [
                (costs["one-keytree"] - costs[name]) / costs["one-keytree"]
                for costs in points
            ],
        )
    series.notes.append(
        "paper: group size has little impact; on average >22% savings"
    )
    return series


if __name__ == "__main__":  # pragma: no cover - manual runner
    print(fig5_series().format_table(precision=4))
