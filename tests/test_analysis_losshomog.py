"""Unit tests for the Section 4.3 multi-tree models (Figs. 6 and 7)."""

import pytest

from repro.analysis import (
    WKA_BKR,
    Partition,
    loss_homogenized_trees,
    misplaced_trees,
    one_tree,
    random_trees,
    scheme_cost,
)
from repro.analysis.wka import expected_transmissions, wka_rekey_cost

N, L, D = 65_536, 256, 4
PH, PL = 0.20, 0.02


def mixture(alpha):
    pairs = []
    if alpha > 0:
        pairs.append((PH, alpha))
    if alpha < 1:
        pairs.append((PL, 1 - alpha))
    return tuple(pairs)


def wka(partitions):
    return scheme_cost(partitions, WKA_BKR, D)


def one(alpha):
    return wka(one_tree(N, L, mixture(alpha)))


def homogenized(alpha):
    return wka(loss_homogenized_trees(N, L, mixture(alpha)))


def misplaced(beta, alpha=0.2):
    return wka(misplaced_trees(N, L, alpha, PH, PL, beta))


class TestFig6Shape:
    def test_endpoints_coincide(self):
        """At alpha = 0 and 1 the homogenized scheme *is* the one-keytree
        scheme (Section 4.3.1(a))."""
        for alpha in (0.0, 1.0):
            assert homogenized(alpha) == pytest.approx(one(alpha))

    def test_homogenized_wins_in_the_middle(self):
        for alpha in (0.1, 0.2, 0.3, 0.5, 0.7):
            assert homogenized(alpha) < one(alpha)

    def test_random_partition_slightly_worse(self):
        """Splitting without homogenizing does not help (Fig. 6)."""
        for alpha in (0.2, 0.5):
            rnd = wka(random_trees(N, L, mixture(alpha), tree_count=2))
            assert rnd > one(alpha)
            assert rnd < one(alpha) * 1.05  # only slightly

    def test_paper_headline_12_percent(self):
        """Peak gain ~12.1% around alpha = 0.3."""
        gains = {alpha: (one(alpha) - homogenized(alpha)) / one(alpha)
                 for alpha in (0.1, 0.2, 0.3, 0.4, 0.5)}
        peak = max(gains.values())
        assert peak == pytest.approx(0.121, abs=0.03)
        assert max(gains, key=gains.get) in (0.2, 0.3)

    def test_random_partition_validation(self):
        with pytest.raises(ValueError):
            random_trees(N, L, mixture(0.2), tree_count=0)


class TestMultiTreeCost:
    def test_empty_trees_cost_nothing(self):
        assert wka([]) == 0.0
        assert wka(loss_homogenized_trees(0, L, ((0.1, 1.0),))) == 0.0

    def test_single_tree_has_no_joint_root_overhead(self):
        assert wka(loss_homogenized_trees(N, L, ((PL, 1.0),))) == wka_rekey_cost(
            N, L, ((PL, 1.0),), D
        )

    def test_joint_root_adds_one_stitch_row_per_tree(self):
        trees = loss_homogenized_trees(N, L, ((PH, 0.5), (PL, 0.5)))
        tree_prices = sum(
            wka_rekey_cost(t.size, t.departures, t.mixture, D) for t in trees
        )
        stitch = sum(expected_transmissions(t.size, t.mixture) for t in trees)
        assert stitch > 0
        assert wka(trees) == pytest.approx(tree_prices + stitch)

    def test_departures_split_proportionally(self):
        """A tree twice the size absorbs twice the departures: the split
        keeps total cost consistent with manual accounting."""
        trees = loss_homogenized_trees(3000, 30, ((PH, 2 / 3), (PL, 1 / 3)))
        assert [t.departures for t in trees] == pytest.approx([20, 10])
        manual = [
            Partition(2000, 20, ((PH, 1.0),)),
            Partition(1000, 10, ((PL, 1.0),)),
        ]
        assert wka(trees) == pytest.approx(wka(manual))


class TestFig7Misplacement:
    def test_beta_zero_is_correct_partition(self):
        assert misplaced(0.0) == pytest.approx(homogenized(0.2))

    def test_gain_decays_with_beta(self):
        costs = [misplaced(b) for b in (0.0, 0.2, 0.4, 0.6, 0.8)]
        assert costs == sorted(costs)

    def test_small_beta_still_beats_one_keytree(self):
        """Paper: at beta <= 0.1 the scheme still wins."""
        assert misplaced(0.1) < one(0.2)

    def test_beta_one_improves_over_beta_08(self):
        """The paper's closing observation: at beta = 1.0 the populations
        have fully swapped, so cost drops again."""
        assert misplaced(1.0) < misplaced(0.8)

    def test_swap_capacity_validation(self):
        with pytest.raises(ValueError):
            misplaced_trees(N, L, 0.8, PH, PL, 0.9)  # 0.72 > 0.2
        with pytest.raises(ValueError):
            misplaced_trees(N, L, 1.2, PH, PL, 0.5)
        with pytest.raises(ValueError):
            misplaced_trees(N, L, 0.2, PH, PL, 1.5)

    def test_mixtures_are_normalized(self):
        for beta in (0.0, 0.3, 1.0):
            for tree in misplaced_trees(N, L, 0.2, PH, PL, beta):
                assert sum(f for __, f in tree.mixture) == pytest.approx(1.0)
