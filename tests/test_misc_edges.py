"""Edge-case tests filling coverage gaps across smaller surfaces."""

import pytest

from repro.analysis.fec import FecParameters, expected_block_cost
from repro.crypto.wrap import RekeyMessage
from repro.experiments.fig3 import fig3_series
from repro.experiments.fig4 import fig4_series
from repro.experiments.fig6 import mixture_for
from repro.experiments.report import Series


class TestFigureParameterPaths:
    def test_fig3_accepts_custom_parameters(self):
        from repro.analysis.twopartition import TwoPartitionParameters

        params = TwoPartitionParameters(group_size=1024, alpha=0.6)
        series = fig3_series(k_values=[0, 5], params=params)
        assert len(series.x_values) == 2
        # K=0 collapse holds for custom parameters too.
        assert series.column("one-keytree")[0] == series.column("TT-scheme")[0]

    def test_fig4_accepts_custom_alphas(self):
        series = fig4_series(alpha_values=[0.5])
        assert series.x_values == [0.5]

    def test_mixture_for_endpoints_drop_empty_classes(self):
        assert mixture_for(0.0) == ((0.02, 1.0),)
        assert mixture_for(1.0) == ((0.2, 1.0),)
        assert len(mixture_for(0.5)) == 2


class TestSeriesFormatting:
    def test_notes_are_rendered(self):
        series = Series("T", "x", [1.0])
        series.add_column("y", [2.0])
        series.notes.append("caveat emptor")
        assert "note: caveat emptor" in series.format_table()

    def test_empty_series_renders_header_only(self):
        series = Series("T", "x", [])
        text = series.format_table()
        assert text.splitlines()[0] == "T"

    def test_column_lookup(self):
        series = Series("T", "x", [1.0])
        series.add_column("y", [3.5])
        assert series.column("y") == [3.5]
        with pytest.raises(KeyError):
            series.column("nope")


class TestFecBlockEdges:
    def test_max_rounds_caps_divergence(self):
        """A hopeless receiver population stops at max_rounds rather than
        iterating forever."""
        params = FecParameters(max_rounds=3)
        cost = expected_block_cost(8, 1e6, ((0.6, 1.0),), params)
        assert cost < 10_000  # bounded, not runaway

    def test_zero_block_is_free(self):
        assert expected_block_cost(0, 100, ((0.1, 1.0),)) == 0.0


class TestRekeyMessageInterest:
    def test_interest_of_empty_holder(self):
        message = RekeyMessage(group="g", epoch=1)
        assert message.index().closure({}) == []


class TestChannelSubscribers:
    def test_subscribers_listing(self):
        from repro.network.channel import MulticastChannel
        from repro.network.loss import BernoulliLoss

        channel = MulticastChannel(seed=0)
        channel.subscribe("a", BernoulliLoss(0.0))
        channel.subscribe("b", BernoulliLoss(0.0))
        assert sorted(channel.subscribers()) == ["a", "b"]
        assert "a" in channel
        assert "ghost" not in channel
