"""Reproduction of every table and figure in the paper's evaluation.

Each module regenerates one artifact:

* :mod:`repro.experiments.defaults` — Table 1 (default parameters).
* :mod:`repro.experiments.fig3` — Fig. 3: rekeying cost vs S-period K.
* :mod:`repro.experiments.fig4` — Fig. 4: cost vs class-Cs fraction alpha.
* :mod:`repro.experiments.fig5` — Fig. 5: relative reduction vs group size.
* :mod:`repro.experiments.fig6` — Fig. 6: WKA-BKR cost vs high-loss fraction.
* :mod:`repro.experiments.fig7` — Fig. 7: cost vs misplaced fraction beta.
* :mod:`repro.experiments.fec_gain` — Section 4.4's proactive-FEC result.
* :mod:`repro.experiments.headlines` — the abstract's headline numbers.
* :mod:`repro.experiments.validation` — simulation-vs-model cross checks
  (our addition; the paper is analytic-only).

All return :class:`repro.experiments.report.Series` objects that print as
aligned text tables.  :data:`FIGURES` is the one list of figure tables:
``repro figures`` prints them and ``tests/test_fidelity.py`` pins them.
"""

from repro.experiments import defaults
from repro.experiments.fec_gain import fec_gain_series
from repro.experiments.fig3 import fig3_series
from repro.experiments.fig4 import fig4_series
from repro.experiments.fig5 import fig5_series
from repro.experiments.fig6 import fig6_series
from repro.experiments.fig7 import fig7_series
from repro.experiments.headlines import headline_numbers
from repro.experiments.report import Series

#: Figure table name -> (sweep, decimals printed); the precision lives here
#: only, so the CLI and the pinned tables cannot drift apart.
FIGURES = {
    "fig3": (fig3_series, 1),
    "fig4": (fig4_series, 2),
    "fig5": (fig5_series, 4),
    "fig6": (fig6_series, 2),
    "fig7": (fig7_series, 2),
    "fec": (fec_gain_series, 2),
}

__all__ = [
    "FIGURES",
    "Series",
    "defaults",
    "fec_gain_series",
    "fig3_series",
    "fig4_series",
    "fig5_series",
    "fig6_series",
    "fig7_series",
    "headline_numbers",
]
