"""Unit tests for the Section 3.3 two-partition steady-state model."""

import math

import pytest

from repro.analysis import TwoPartitionParameters, scheme_costs, steady_state
from repro.members.durations import exponential_departure_probability


def reductions(params):
    """Each scheme's fractional saving over the one-keytree scheme."""
    costs = scheme_costs(params)
    base = costs["one-keytree"]
    return {name: (base - cost) / base for name, cost in costs.items()}


@pytest.fixture
def table1():
    return TwoPartitionParameters()  # the paper's defaults


class TestParameters:
    def test_defaults_are_table1(self, table1):
        assert table1.group_size == 65_536
        assert table1.degree == 4
        assert table1.rekey_period == 60.0
        assert table1.k_periods == 10
        assert table1.short_mean == 180.0
        assert table1.long_mean == 10_800.0
        assert table1.alpha == 0.8
        assert table1.s_period == 600.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TwoPartitionParameters(group_size=0)
        with pytest.raises(ValueError):
            TwoPartitionParameters(alpha=1.2)
        with pytest.raises(ValueError):
            TwoPartitionParameters(k_periods=-1)
        with pytest.raises(ValueError):
            TwoPartitionParameters(degree=1)

    @pytest.mark.parametrize(
        "field, value", [("k_periods", 2.5), ("degree", 4.5), ("k_periods", 10.0), ("degree", True)]
    )
    def test_rejects_non_integer_k_and_degree(self, field, value):
        """Used to pass here and raise TypeError deep in the steady state."""
        with pytest.raises(ValueError, match=field):
            TwoPartitionParameters(**{field: value})

    def test_with_helpers_replace_immutably(self, table1):
        assert table1.with_k(3).k_periods == 3
        assert table1.with_alpha(0.5).alpha == 0.5
        assert table1.with_group_size(100).group_size == 100
        assert table1.k_periods == 10  # unchanged original


class TestSteadyState:
    def test_balance_equations_hold(self, table1):
        """Eqs. (1)-(5): class populations and flows are consistent."""
        s = steady_state(table1)
        pr_short = exponential_departure_probability(60.0, 180.0)
        pr_long = exponential_departure_probability(60.0, 10_800.0)
        assert s.n_class_short + s.n_class_long == pytest.approx(65_536)
        assert s.n_short + s.n_long == pytest.approx(65_536)
        assert s.l_class_short == pytest.approx(s.n_class_short * pr_short)
        assert s.l_class_long == pytest.approx(s.n_class_long * pr_long)
        assert s.l_class_short + s.l_class_long == pytest.approx(s.joins)
        assert s.l_short + s.l_migrated == pytest.approx(s.joins)
        assert s.l_long == pytest.approx(s.l_migrated)  # L inflow = outflow

    def test_eq6_geometric_sum(self, table1):
        """Ns equals the closed-form geometric sums of eq. (6)."""
        s = steady_state(table1)
        j = s.joins

        def geometric(mean):
            r = math.exp(-60.0 / mean)
            return (1 - r**10) / (1 - r)

        expected = 0.8 * j * geometric(180.0) + 0.2 * j * geometric(10_800.0)
        assert s.n_short == pytest.approx(expected)

    def test_k_zero_empties_s_partition(self, table1):
        s = steady_state(table1.with_k(0))
        assert s.n_short == 0.0
        assert s.l_migrated == pytest.approx(s.joins)

    def test_larger_k_grows_s_partition(self, table1):
        sizes = [steady_state(table1.with_k(k)).n_short for k in range(0, 20, 4)]
        assert sizes == sorted(sizes)

    def test_alpha_one_is_all_short(self, table1):
        s = steady_state(table1.with_alpha(1.0))
        assert s.n_class_long == 0.0
        assert s.l_class_long == 0.0


class TestSchemeCosts:
    def test_k_zero_collapses_to_one_keytree(self, table1):
        costs = scheme_costs(table1.with_k(0))
        assert costs["QT-scheme"] == costs["one-keytree"]
        assert costs["TT-scheme"] == costs["one-keytree"]

    def test_paper_fig3_shape(self, table1):
        """TT bottoms out near K=10, ~25% below baseline; PT ~40% below;
        TT beats QT at large K."""
        saved = reductions(table1)
        assert saved["TT-scheme"] == pytest.approx(0.25, abs=0.05)
        assert saved["PT-scheme"] == pytest.approx(0.40, abs=0.05)
        at20 = scheme_costs(table1.with_k(20))
        assert at20["TT-scheme"] < at20["QT-scheme"]

    def test_paper_fig4_crossover(self, table1):
        """QT/TT beat one-keytree for alpha > 0.6 and lose for
        alpha <= 0.4 (Section 3.3.2(b))."""
        for alpha in (0.7, 0.8, 0.9):
            saved = reductions(table1.with_alpha(alpha))
            assert saved["QT-scheme"] > 0
            assert saved["TT-scheme"] > 0
        for alpha in (0.1, 0.2, 0.3, 0.4):
            saved = reductions(table1.with_alpha(alpha))
            assert saved["QT-scheme"] < 0
            assert saved["TT-scheme"] < 0

    def test_paper_headline_31_percent(self, table1):
        """Up to 31.4% reduction at alpha = 0.9 (abstract)."""
        saved = reductions(table1.with_alpha(0.9))
        best = max(saved["QT-scheme"], saved["TT-scheme"])
        assert best == pytest.approx(0.314, abs=0.03)

    def test_pt_always_at_least_as_good_as_tt(self, table1):
        """PT pays no migration overhead (Section 3.3.2)."""
        for alpha in (0.2, 0.5, 0.8):
            for k in (2, 10, 18):
                costs = scheme_costs(table1.with_alpha(alpha).with_k(k))
                assert costs["PT-scheme"] <= costs["TT-scheme"] + 1e-9

    def test_fig5_size_insensitivity(self, table1):
        """Relative reduction varies little with N (Section 3.3.2(c))."""
        saved = [
            reductions(table1.with_group_size(n))["TT-scheme"]
            for n in (1024, 4096, 16_384, 65_536, 262_144)
        ]
        assert max(saved) - min(saved) < 0.03
        assert min(saved) > 0.22

    def test_scheme_costs_returns_all_four(self, table1):
        costs = scheme_costs(table1)
        assert set(costs) == {"one-keytree", "QT-scheme", "TT-scheme", "PT-scheme"}
        assert all(c > 0 for c in costs.values())
