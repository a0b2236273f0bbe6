"""Fig. 3: impact of the S-period on key-server rekeying cost.

Sweeps ``K = Ts/Tp`` from 0 to 20 at the Table 1 defaults and evaluates
the four schemes.  Expected shape (paper, Section 3.3.2(a)): all schemes
equal at K = 0; TT bottoms out around K = 10 at roughly 25% below the
one-keytree scheme; TT beats QT for large K; PT is flat at ~40% below.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.analysis import TwoPartitionParameters, scheme_costs
from repro.experiments.defaults import TABLE1
from repro.experiments.report import Series

SCHEMES = ("one-keytree", "QT-scheme", "TT-scheme", "PT-scheme")


def fig3_series(
    k_values: Iterable[int] = range(0, 21),
    params: Optional[TwoPartitionParameters] = None,
) -> Series:
    """Rekeying cost (# keys) per periodic rekeying vs ``K``."""
    base = params if params is not None else TABLE1
    k_list = list(k_values)
    series = Series(
        title="Fig. 3 — key-server rekeying cost (#keys) vs S-period K = Ts/Tp",
        x_label="K",
        x_values=[float(k) for k in k_list],
    )
    points = [scheme_costs(base.with_k(k)) for k in k_list]
    for name in SCHEMES:
        series.add_column(name, [point[name] for point in points])
    series.notes.append(
        "paper: TT ~25% below one-keytree at K=10; PT ~40% below; "
        "all equal at K=0"
    )
    return series


if __name__ == "__main__":  # pragma: no cover - manual runner
    print(fig3_series().format_table())
