"""Tests for the worst-/best-case batch-cost bounds ([YLZL01])."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.batchcost import (
    best_case_batch_cost,
    expected_batch_cost_full,
    worst_case_batch_cost,
)


class TestBounds:
    def test_single_departure_bounds_coincide(self):
        # One departure touches exactly one path whatever its placement.
        for n in (64, 256, 4096):
            assert worst_case_batch_cost(n, 1, 4) == best_case_batch_cost(n, 1, 4)

    def test_all_depart_bounds_coincide(self):
        assert worst_case_batch_cost(256, 256, 4) == best_case_batch_cost(
            256, 256, 4
        )

    @pytest.mark.parametrize("l", [2, 8, 32, 128])
    def test_expected_between_bounds(self, l):
        n = 4096
        expected = expected_batch_cost_full(n, l, 4)
        assert best_case_batch_cost(n, l, 4) - 1e-9 <= expected
        assert expected <= worst_case_batch_cost(n, l, 4) + 1e-9

    def test_worst_case_closed_form(self):
        # N=64, d=4, L=5: levels hit min(1,5)+min(4,5)+min(16,5) = 1+4+5
        assert worst_case_batch_cost(64, 5, 4) == 4 * (1 + 4 + 5)

    def test_best_case_closed_form(self):
        # N=64, d=4, L=5: ceil(5/64)+ceil(5/16)+ceil(5/4) = 1+1+2
        assert best_case_batch_cost(64, 5, 4) == 4 * (1 + 1 + 2)

    def test_trivial_inputs(self):
        assert worst_case_batch_cost(0, 5, 4) == 0.0
        assert best_case_batch_cost(100, 0, 4) == 0.0

    @pytest.mark.parametrize("n, d", [(8**6, 8), (6**6, 6)])
    def test_single_departure_expected_is_exact(self, n, d):
        # One departure updates exactly one leaf-to-root path: d wraps per
        # level.  The lgamma form read 47.99987 at N = 8^6 (the one point
        # where test_bound_ordering_property failed) and 36.0000013 at 6^6.
        height = 6
        assert expected_batch_cost_full(n, 1, d) == pytest.approx(d * height, rel=1e-12)
        assert best_case_batch_cost(n, 1, d) == worst_case_batch_cost(n, 1, d) == d * height

    def test_validation(self):
        with pytest.raises(ValueError):
            worst_case_batch_cost(100, 5, 1)
        with pytest.raises(ValueError):
            best_case_batch_cost(100, 5, 0)


@settings(max_examples=60, deadline=None)
@given(
    height=st.integers(min_value=1, max_value=6),
    l=st.integers(min_value=1, max_value=4096),
    d=st.integers(min_value=2, max_value=8),
)
def test_bound_ordering_property(height, l, d):
    # The three formulas share a tree model only when N is an exact power
    # of d (the closed form pads other N up to the next power, which can
    # price more level nodes than the capped bounds assume).
    n = d**height
    l = min(l, n)
    best = best_case_batch_cost(n, l, d)
    expected = expected_batch_cost_full(n, l, d)
    worst = worst_case_batch_cost(n, l, d)
    # 1e-6 relative tolerance: above 256 departures the closed form goes
    # through lgamma, whose rounding is ~1e-7 relative at these N.
    assert best <= expected * (1 + 1e-6) + 1e-6
    assert expected <= worst * (1 + 1e-6) + 1e-6
