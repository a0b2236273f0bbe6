"""Property-based tests (hypothesis) for the analytic models."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.batchcost import expected_batch_cost
from repro.analysis.combinatorics import subtree_hit_probability
from repro.analysis import TwoPartitionParameters, scheme_costs, steady_state
from repro.analysis.wka import expected_transmissions, wka_rekey_cost

sizes = st.integers(min_value=2, max_value=20_000)
losses = st.floats(min_value=0.0, max_value=0.6, allow_nan=False)


@settings(max_examples=80, deadline=None)
@given(n=sizes, l=st.integers(min_value=0, max_value=20_000), s=sizes)
def test_hit_probability_is_a_probability(n, l, s):
    s = min(s, n)
    p = subtree_hit_probability(n, min(l, n), s)
    assert 0.0 <= p <= 1.0 + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    n=sizes,
    l=st.integers(min_value=1, max_value=2000),
    d=st.integers(min_value=2, max_value=8),
)
def test_batch_cost_bounds(n, l, d):
    """0 <= Ne(N, L) <= L * d * ceil(log_d N) (batching never exceeds
    per-departure pricing) and Ne <= total tree edges."""
    l = min(l, n)
    cost = expected_batch_cost(n, l, d)
    assert cost >= 0.0
    per_departure = d * math.ceil(math.log(n, d)) if n > 1 else 0
    assert cost <= l * per_departure + 1e-6
    assert cost <= expected_batch_cost(n, n, d) + 1e-9


@settings(max_examples=50, deadline=None)
@given(r=st.floats(min_value=0.0, max_value=1e5), p=losses)
def test_expected_transmissions_lower_bound(r, p):
    """E[M] >= max(1, 1/(1-p)) for any non-empty audience."""
    value = expected_transmissions(r, ((p, 1.0),))
    if r <= 0:
        assert value == 0.0
    else:
        assert value >= 1.0 - 1e-9
        if r >= 1:
            assert value >= 1 / (1 - p) - 1e-6


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=16, max_value=10_000),
    l=st.integers(min_value=1, max_value=256),
    p=losses,
)
def test_wka_cost_at_least_batch_cost(n, l, p):
    l = min(l, n)
    lossless = expected_batch_cost(n, l, 4)
    lossy = wka_rekey_cost(n, l, ((p, 1.0),), 4)
    assert lossy >= lossless - 1e-9


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(min_value=0.0, max_value=1.0),
    k=st.integers(min_value=0, max_value=25),
    n=st.integers(min_value=100, max_value=300_000),
)
def test_steady_state_is_always_consistent(alpha, k, n):
    params = TwoPartitionParameters(group_size=n, alpha=alpha, k_periods=k)
    s = steady_state(params)
    assert s.joins >= 0
    assert s.n_short >= -1e-9
    assert s.n_short <= n + 1e-6
    assert s.n_short + s.n_long == pytest.approx(n)
    assert s.l_short + s.l_migrated == pytest.approx(s.joins)
    assert all(cost >= 0.0 for cost in scheme_costs(params).values())
