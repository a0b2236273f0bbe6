"""Unit tests for the Section 4.4 proactive-FEC bandwidth model."""

import pytest

from repro.analysis import (
    FEC,
    WKA_BKR,
    Partition,
    loss_homogenized_trees,
    one_tree,
    scheme_cost,
)
from repro.analysis.fec import FecParameters, expected_block_cost, fec_tree_cost

N, L, D = 65_536, 256, 4
PH, PL = 0.20, 0.02


def mixture(alpha):
    pairs = []
    if alpha > 0:
        pairs.append((PH, alpha))
    if alpha < 1:
        pairs.append((PL, 1 - alpha))
    return tuple(pairs)


def one(alpha, transport=FEC):
    return scheme_cost(one_tree(N, L, mixture(alpha)), transport, D)


def homogenized(alpha, transport=FEC):
    return scheme_cost(loss_homogenized_trees(N, L, mixture(alpha)), transport, D)


class TestParameters:
    def test_validation(self):
        with pytest.raises(ValueError):
            FecParameters(block_size=0)
        with pytest.raises(ValueError):
            FecParameters(proactivity=0.9)
        with pytest.raises(ValueError):
            FecParameters(keys_per_packet=0)


class TestBlockCost:
    def test_zero_receivers_free(self):
        assert expected_block_cost(16, 0, ((0.1, 1.0),)) == 0.0

    def test_zero_loss_costs_payload_plus_proactive_parity(self):
        params = FecParameters(proactivity=1.25)
        cost = expected_block_cost(16, 1000, ((0.0, 1.0),), params)
        assert cost == 16 + 4  # k + ceil(0.25k), no reactive rounds

    def test_no_proactivity_zero_loss_is_just_payload(self):
        params = FecParameters(proactivity=1.0)
        assert expected_block_cost(16, 1000, ((0.0, 1.0),), params) == 16.0

    def test_cost_grows_with_loss(self):
        costs = [
            expected_block_cost(16, 1000, ((p, 1.0),)) for p in (0.01, 0.1, 0.3)
        ]
        assert costs == sorted(costs)
        assert costs[-1] > costs[0]

    def test_minority_high_loss_dominates(self):
        """The mechanism behind Section 4.4: a 10% high-loss minority
        pushes the block cost close to the all-high cost."""
        all_low = expected_block_cost(16, 1000, ((PL, 1.0),))
        minority = expected_block_cost(16, 1000, ((PH, 0.1), (PL, 0.9)))
        all_high = expected_block_cost(16, 1000, ((PH, 1.0),))
        assert minority > all_low
        assert (minority - all_low) > 0.5 * (all_high - all_low)


class TestTreeCosts:
    def test_trivial_inputs_free(self):
        assert fec_tree_cost(0, L, ((PL, 1.0),)) == 0.0
        assert fec_tree_cost(N, 0, ((PL, 1.0),)) == 0.0

    def test_homogenized_beats_one_tree_in_the_middle(self):
        for alpha in (0.05, 0.1, 0.3):
            assert homogenized(alpha) < one(alpha)

    def test_endpoints_coincide(self):
        for alpha in (0.0, 1.0):
            assert homogenized(alpha) == pytest.approx(one(alpha))

    def test_paper_headline_gain_at_alpha_01(self):
        """Paper: up to 25.7% under proactive FEC at alpha = 0.1.  Our
        block parameters differ from (unreported) [YLZL01] settings, so we
        assert the gain lands in the same band and exceeds the WKA gain."""
        gain = (one(0.1) - homogenized(0.1)) / one(0.1)
        assert 0.15 < gain < 0.45
        wka_gain = 1 - homogenized(0.1, WKA_BKR) / one(0.1, WKA_BKR)
        assert gain > wka_gain

    def test_multi_tree_splits_departures(self):
        trees = loss_homogenized_trees(N, L, ((PH, 0.5), (PL, 0.5)))
        manual = fec_tree_cost(N / 2, L / 2, ((PH, 1.0),), D) + fec_tree_cost(
            N / 2, L / 2, ((PL, 1.0),), D
        )
        assert scheme_cost(trees, FEC, D) == pytest.approx(manual)

    def test_empty_forest_free(self):
        assert scheme_cost([], FEC, D) == 0.0

    def test_stitch_is_not_charged(self):
        """The FEC model prices the DEK stitch at 0 (docs/models.md §5)."""
        parts = [Partition(N / 2, L / 2, ((PH, 1.0),)), Partition(N / 2, L / 2, ((PL, 1.0),))]
        assert scheme_cost(parts, FEC, D) == fec_tree_cost(
            N / 2, L / 2, ((PH, 1.0),), D
        ) + fec_tree_cost(N / 2, L / 2, ((PL, 1.0),), D)
