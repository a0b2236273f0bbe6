"""Unit tests for the one partition cost model (``repro.analysis.schemes``)."""

import pytest

from repro.analysis import (
    COUNTED,
    FEC,
    LOSSLESS,
    WKA_BKR,
    Partition,
    TwoPartitionParameters,
    expected_batch_cost,
    expected_transmissions,
    loss_homogenized_trees,
    misplaced_trees,
    one_tree,
    proportional_trees,
    random_trees,
    scheme_cost,
    two_partition_schemes,
    wka_rekey_cost,
)
from repro.analysis.fec import fec_tree_cost

PH, PL = 0.20, 0.02
TRANSPORTS = [COUNTED, WKA_BKR, FEC]


class TestPartition:
    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            Partition(size=-1, departures=0, mixture=((0.1, 1.0),))

    def test_is_frozen(self):
        part = Partition(10, 1, LOSSLESS)
        with pytest.raises(AttributeError):
            part.size = 11


class TestTransports:
    def test_tree_prices_are_the_primitives(self):
        mix = ((PH, 0.3), (PL, 0.7))
        assert COUNTED.tree(1000, 20, mix, 4) == expected_batch_cost(1000, 20, 4)
        assert WKA_BKR.tree(1000, 20, mix, 4) == wka_rekey_cost(1000, 20, mix, 4)
        assert FEC.tree(1000, 20, mix, 4) == fec_tree_cost(1000, 20, mix, 4)

    def test_stitch_prices(self):
        mix = ((PH, 1.0),)
        assert COUNTED.stitch(1000, mix) == 0.0
        assert FEC.stitch(1000, mix) == 0.0
        assert WKA_BKR.stitch(1000, mix) == expected_transmissions(1000, mix)

    def test_counted_prices_a_queue_at_its_size(self):
        queue = Partition(37.5, 4, LOSSLESS, queue=True)
        assert scheme_cost([queue], COUNTED) == 37.5

    @pytest.mark.parametrize("transport", [WKA_BKR, FEC], ids=["wka-bkr", "fec"])
    def test_lossy_transports_reject_a_queue(self, transport):
        with pytest.raises(ValueError, match="queue"):
            scheme_cost([Partition(100, 4, LOSSLESS, queue=True)], transport)


class TestStitchRule:
    def test_one_stitch_row_per_partition(self):
        parts = [Partition(600, 10, ((PH, 1.0),)), Partition(400, 0, ((PL, 1.0),))]
        trees = WKA_BKR.tree(600, 10, ((PH, 1.0),), 4) + WKA_BKR.tree(400, 0, ((PL, 1.0),), 4)
        stitch = expected_transmissions(600, ((PH, 1.0),)) + expected_transmissions(
            400, ((PL, 1.0),)
        )
        assert scheme_cost(parts, WKA_BKR) == pytest.approx(trees + stitch)

    def test_no_stitch_without_a_departure(self):
        parts = [Partition(600, 0, ((PH, 1.0),)), Partition(400, 0, ((PL, 1.0),))]
        assert scheme_cost(parts, WKA_BKR) == 0.0

    def test_empty_scheme_costs_nothing(self):
        for transport in TRANSPORTS:
            assert scheme_cost([], transport) == 0.0

    @pytest.mark.parametrize("transport", TRANSPORTS, ids=["counted", "wka-bkr", "fec"])
    def test_negative_departures_rejected(self, transport):
        """One rule on every transport: FEC used to price these at 0."""
        parts = [Partition(500, 5, ((PL, 1.0),)), Partition(500, -1, ((PL, 1.0),))]
        with pytest.raises(ValueError, match="departures"):
            scheme_cost(parts, transport)
        with pytest.raises(ValueError, match="departures"):
            scheme_cost(loss_homogenized_trees(1000, -10, ((PH, 0.5), (PL, 0.5))), transport)


class TestBuilders:
    OVERSUBSCRIBED = ((0.1, 0.5), (0.2, 0.6))  # a 110-member group at N = 100

    @pytest.mark.parametrize(
        "build", [one_tree, random_trees, loss_homogenized_trees],
        ids=["one-tree", "random", "homogenized"],
    )
    def test_builders_validate_the_group_mixture(self, build):
        """Each class used to become its own tree, so the per-tree check
        passed and a 110% group priced at 69.29 keys."""
        with pytest.raises(ValueError, match="sum to 1"):
            build(100, 5, self.OVERSUBSCRIBED)

    def test_misplaced_validates_the_loss_rates(self):
        with pytest.raises(ValueError, match="loss rate"):
            misplaced_trees(1000, 8, 0.2, 1.2, PL, 0.1)

    def test_proportional_split(self):
        parts = proportional_trees([(2000, ((PL, 1.0),)), (0.4, LOSSLESS), (1000, LOSSLESS)], 30)
        assert [(p.size, p.departures) for p in parts] == [(2000, 20), (1000, 10)]
        with pytest.raises(ValueError):
            proportional_trees([(-1, LOSSLESS)], 30)

    def test_homogenized_trees_are_homogeneous(self):
        parts = loss_homogenized_trees(1000, 10, [(PH, 0.25), (PL, 0.75)])
        assert [p.mixture for p in parts] == [((PH, 1.0),), ((PL, 1.0),)]
        assert [p.size for p in parts] == [250, 750]

    def test_two_partition_shapes(self):
        schemes = two_partition_schemes(TwoPartitionParameters())
        assert [p.queue for p in schemes["QT-scheme"]] == [True, False]
        assert all(len(parts) == 2 for name, parts in schemes.items() if name != "one-keytree")
        collapsed = two_partition_schemes(TwoPartitionParameters(k_periods=0))
        assert collapsed["QT-scheme"] == collapsed["TT-scheme"] == collapsed["one-keytree"]
