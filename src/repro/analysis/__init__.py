"""Analytic models reproducing the paper's evaluation.

* :mod:`repro.analysis.combinatorics` — stable hypergeometric "subtree hit"
  probabilities (eq. 11).
* :mod:`repro.analysis.batchcost` — Appendix A: expected encrypted keys
  ``Ne(N, L)`` for one batched rekeying, full and partially-full trees.
* :mod:`repro.analysis.twopartition` — Section 3.3: the two-class open
  queueing steady state (eqs. 1–7).
* :mod:`repro.analysis.wka` — Appendix B: WKA-BKR expected bandwidth
  ``E[V]`` (eqs. 13–15), generalized to heterogeneous loss mixtures.
* :mod:`repro.analysis.fec` — Section 4.4: a proactive-FEC transport
  bandwidth model in the spirit of [YLZL01].
* :mod:`repro.analysis.schemes` — every scheme as a list of partitions,
  priced by one :func:`scheme_cost` over a counted, WKA-BKR or FEC
  transport: the QT/TT/PT and one-keytree costs (eqs. 8–10), the
  loss-homogenized and random-split trees (Section 4.3) and the
  misplaced split behind Fig. 7 (Section 4.3.1(b)).
"""

from repro.analysis.batchcost import expected_batch_cost, expected_batch_cost_full
from repro.analysis.combinatorics import log_choose, subtree_hit_probability
from repro.analysis.fec import FecParameters
from repro.analysis.schemes import (
    COUNTED,
    FEC,
    LOSSLESS,
    WKA_BKR,
    Fec,
    Partition,
    Transport,
    loss_homogenized_trees,
    misplaced_trees,
    one_tree,
    proportional_trees,
    random_trees,
    scheme_cost,
    scheme_costs,
    two_partition_schemes,
)
from repro.analysis.twopartition import SteadyState, TwoPartitionParameters, steady_state
from repro.analysis.wka import expected_transmissions, wka_rekey_cost

__all__ = [
    "COUNTED",
    "FEC",
    "Fec",
    "FecParameters",
    "LOSSLESS",
    "Partition",
    "SteadyState",
    "Transport",
    "TwoPartitionParameters",
    "WKA_BKR",
    "expected_batch_cost",
    "expected_batch_cost_full",
    "expected_transmissions",
    "log_choose",
    "loss_homogenized_trees",
    "misplaced_trees",
    "one_tree",
    "proportional_trees",
    "random_trees",
    "scheme_cost",
    "scheme_costs",
    "steady_state",
    "subtree_hit_probability",
    "two_partition_schemes",
    "wka_rekey_cost",
]
