"""One cost model for every scheme: a scheme is a list of partitions.

The paper prices each scheme as a sum over its key trees.  Section 3.3
sums ``Ne(N_t, L_t)`` over the S- and L-partitions in counted keys
(eqs. 8-10); Section 4.3 sums each tree's WKA-BKR or FEC cost, with the
departures split in proportion to tree size.  Here a :class:`Partition`
carries one tree's size, departures and loss mixture, a
:class:`Transport` prices one partition and the stitch row above its
root, and :func:`scheme_cost` is the one sum.  Each family is a builder
that returns partitions:

* :func:`two_partition_schemes` — Section 3.3: one-keytree, QT, TT and PT
  from the steady state;
* :func:`one_tree`, :func:`random_trees`, :func:`loss_homogenized_trees`
  — Section 4.3 (Fig. 6);
* :func:`misplaced_trees` — Section 4.3.1(b) (Fig. 7);
* :func:`proportional_trees` — any list of trees, departures split by
  size.

The stitch.  When two or more partitions share a rekey that has a
departure, the fresh group key (DEK) is wrapped once per partition root.
WKA-BKR prices that row as ``E[M]`` over the partition's receivers.  The
counted and FEC transports price it at 0: eqs. (8)-(10) are printed
without it, and the FEC model never charged it (``docs/models.md`` §5
gives the gap).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.analysis.batchcost import expected_batch_cost
from repro.analysis.fec import FecParameters, fec_tree_cost
from repro.analysis.twopartition import TwoPartitionParameters, steady_state
from repro.analysis.wka import (
    LossMixture,
    _mixture_key,
    _validate_mixture,
    expected_transmissions,
    wka_rekey_cost,
)

Mixture = Tuple[Tuple[float, float], ...]
LOSSLESS: Mixture = ((0.0, 1.0),)


@dataclass(frozen=True)
class Partition:
    """One key tree of a scheme (or QT's queue): members, departures per
    rekey and the members' loss mixture."""

    size: float
    departures: float
    mixture: Mixture
    queue: bool = False

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("partition size must be non-negative")


class Transport:
    """Prices one partition's rekey and the stitch row above its root."""

    def tree(self, size: float, departures: float, mixture: Mixture, degree: int) -> float:
        raise NotImplementedError

    def queue(self, size: float) -> float:
        raise ValueError(f"{type(self).__name__} prices no queue partition")

    def stitch(self, size: float, mixture: Mixture) -> float:
        return 0.0


class Counted(Transport):
    """Encrypted keys, each sent once: ``Ne(N, L)`` (Appendix A)."""

    def tree(self, size, departures, mixture, degree):
        return expected_batch_cost(size, departures, degree)

    def queue(self, size):
        return size  # eq. (8): Neq = Ns, the DEK once per queue resident


class WkaBkr(Transport):
    """WKA-BKR ``E[V]`` (Appendix B); the stitch row is resent until every
    member of the partition holds it."""

    def tree(self, size, departures, mixture, degree):
        return wka_rekey_cost(size, departures, mixture, degree)

    def stitch(self, size, mixture):
        return expected_transmissions(size, mixture)


@dataclass(frozen=True)
class Fec(Transport):
    """Proactive FEC (Section 4.4)."""

    params: FecParameters = FecParameters()

    def tree(self, size, departures, mixture, degree):
        return fec_tree_cost(size, departures, mixture, degree, self.params)


COUNTED = Counted()
WKA_BKR = WkaBkr()
FEC = Fec()


def scheme_cost(
    partitions: Sequence[Partition], transport: Transport, degree: int = 4
) -> float:
    """Expected keys per rekey: the partitions' prices in list order, then
    one stitch row per partition when two or more partitions share a
    rekey that has a departure."""
    cost = 0.0
    for part in partitions:
        if part.departures < 0:
            raise ValueError("departures must be non-negative")
        if part.queue:
            cost += transport.queue(part.size)
        else:
            cost += transport.tree(part.size, part.departures, part.mixture, degree)
    if len(partitions) > 1 and any(part.departures > 0 for part in partitions):
        for part in partitions:
            cost += transport.stitch(part.size, part.mixture)
    return cost


def two_partition_schemes(params: TwoPartitionParameters) -> Dict[str, List[Partition]]:
    """Section 3.3's four schemes as partitions of the steady state::

        one-keytree  Ne(N, J)                       the un-optimized baseline
        QT-scheme    Ns + Ne(Nl, Ll)                eq. (8): a queue + a tree
        TT-scheme    Ne(Ns, J) + Ne(Nl, Ll)         eq. (9): the S-tree takes
                                                    all J removals (departures
                                                    plus migrations)
        PT-scheme    Ne(Ncs, Lcs) + Ne(Ncl, Lcl)    eq. (10): oracle placement
                                                    by class, no migration

    At ``K = 0`` the S-partition is empty and QT and TT are the one-keytree
    scheme.
    """
    state = steady_state(params)
    one = [Partition(params.group_size, state.joins, LOSSLESS)]
    pt = [
        Partition(state.n_class_short, state.l_class_short, LOSSLESS),
        Partition(state.n_class_long, state.l_class_long, LOSSLESS),
    ]
    if params.k_periods == 0:
        return {"one-keytree": one, "QT-scheme": one, "TT-scheme": one, "PT-scheme": pt}
    long_tree = Partition(state.n_long, state.l_long, LOSSLESS)
    return {
        "one-keytree": one,
        "QT-scheme": [Partition(state.n_short, state.l_short, LOSSLESS, queue=True), long_tree],
        "TT-scheme": [Partition(state.n_short, state.joins, LOSSLESS), long_tree],
        "PT-scheme": pt,
    }


def scheme_costs(params: TwoPartitionParameters) -> Dict[str, float]:
    """All four per-period costs in counted keys, keyed by the paper's
    scheme names."""
    return {
        name: scheme_cost(partitions, COUNTED, params.degree)
        for name, partitions in two_partition_schemes(params).items()
    }


def proportional_trees(
    trees: Iterable[Tuple[float, LossMixture]], total_departures: float
) -> List[Partition]:
    """Section 4.3: trees of at most half a member are dropped; the rest
    share ``total_departures`` in proportion to size ("We let the number
    of departed members from a key tree be proportional to the total
    number of members in the key tree")."""
    trees = [(size, _mixture_key(mixture)) for size, mixture in trees]
    if any(size < 0 for size, __ in trees):
        raise ValueError("tree size must be non-negative")
    populated = [(size, mixture) for size, mixture in trees if size > 0.5]
    total_size = sum(size for size, __ in populated)
    return [
        Partition(size, total_departures * size / total_size, mixture)
        for size, mixture in populated
    ]


def one_tree(group_size: float, departures: float, mixture: LossMixture) -> List[Partition]:
    """The baseline: one tree holding the whole mixed population."""
    _validate_mixture(mixture)
    return [Partition(group_size, departures, _mixture_key(mixture))]


def random_trees(
    group_size: float, departures: float, mixture: LossMixture, tree_count: int = 2
) -> List[Partition]:
    """The control: ``tree_count`` trees with members placed at random.

    Every tree inherits the whole mixture, so high-loss receivers still
    inflate every tree's replication; the paper finds this slightly worse
    than one tree (extra roots, no homogenization benefit).
    """
    if tree_count < 1:
        raise ValueError("tree_count must be at least 1")
    _validate_mixture(mixture)
    return proportional_trees([(group_size / tree_count, mixture)] * tree_count, departures)


def loss_homogenized_trees(
    group_size: float, departures: float, mixture: LossMixture
) -> List[Partition]:
    """Our scheme: class ``j`` of fraction ``f_j`` gets a tree of
    ``f_j * N`` members, all at loss rate ``p_j``.  With one class populated
    (the paper's alpha = 0 / 1 endpoints) it is the one-tree scheme."""
    _validate_mixture(mixture)
    return proportional_trees(
        [(group_size * fraction, ((rate, 1.0),)) for rate, fraction in mixture if fraction > 0],
        departures,
    )


def misplaced_trees(
    group_size: float,
    departures: float,
    high_fraction: float,
    high_loss: float,
    low_loss: float,
    misplaced_fraction: float,
) -> List[Partition]:
    """Section 4.3.1(b): the mis-partitioned two-tree server of Fig. 7.

    The server never moves members between loss trees, so a wrong loss
    estimate at join time leaves a member in the wrong tree.  The tree
    sizes stay fixed and a fraction ``beta = misplaced_fraction`` of the
    high-loss tree's slots go to low-loss members, swapped with the same
    *count* of high-loss members from the low-loss tree::

        high tree (size alpha*N):     (1-beta) high-loss + beta low-loss
        low tree  (size (1-alpha)*N): beta*alpha*N high-loss, the rest low

    At ``beta = 1`` the trees have fully exchanged populations, which is
    why the paper's curve improves again near 1.  ``alpha =
    high_fraction`` is the fraction of genuinely high-loss receivers.
    Raises ``ValueError`` when the swap does not fit the low tree
    (``beta * alpha > 1 - alpha``), which the paper's construction never
    asks for.
    """
    if not 0.0 <= high_fraction <= 1.0:
        raise ValueError("high_fraction must be in [0, 1]")
    if not 0.0 <= misplaced_fraction <= 1.0:
        raise ValueError("misplaced_fraction must be in [0, 1]")
    _validate_mixture(((high_loss, high_fraction), (low_loss, 1.0 - high_fraction)))
    swapped = misplaced_fraction * high_fraction
    low_tree_size = 1.0 - high_fraction
    if swapped > low_tree_size + 1e-12:
        raise ValueError(
            "swap count exceeds the low-loss tree: "
            f"beta*alpha = {swapped:.4f} > 1 - alpha = {low_tree_size:.4f}"
        )
    high_in_low = swapped / low_tree_size if low_tree_size > 0 else 0.0
    return proportional_trees(
        [
            (
                group_size * high_fraction,
                _normalized((high_loss, 1.0 - misplaced_fraction), (low_loss, misplaced_fraction)),
            ),
            (
                group_size * low_tree_size,
                _normalized((high_loss, high_in_low), (low_loss, 1.0 - high_in_low)),
            ),
        ],
        departures,
    )


def _normalized(*pairs: Tuple[float, float]) -> Mixture:
    """Drop zero-fraction classes; keep the mixture summing to 1."""
    kept = tuple((rate, fraction) for rate, fraction in pairs if fraction > 0)
    return kept if kept else LOSSLESS
