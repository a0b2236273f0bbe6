"""Direct tests for the Fig. 7 misplacement model (``misplaced_trees``)."""

import pytest

from repro.analysis import WKA_BKR, loss_homogenized_trees, misplaced_trees, scheme_cost

N, PH, PL = 1024.0, 0.20, 0.02


def trees(alpha, beta, departures=64.0):
    return misplaced_trees(N, departures, alpha, PH, PL, beta)


def cost(alpha, beta, departures=64.0):
    return scheme_cost(trees(alpha, beta, departures), WKA_BKR)


def mixture_of(tree):
    return dict(tree.mixture)


def test_beta_zero_is_perfect_homogenization():
    parts = trees(0.3, 0.0)
    assert len(parts) == 2
    high, low = parts
    assert high.size == pytest.approx(N * 0.3)
    assert low.size == pytest.approx(N * 0.7)
    assert mixture_of(high) == {PH: 1.0}
    assert mixture_of(low) == {PL: 1.0}


def test_beta_zero_cost_matches_loss_homogenized_model():
    alpha = 0.3
    via_mixture = scheme_cost(
        loss_homogenized_trees(N, 64.0, ((PH, alpha), (PL, 1.0 - alpha))), WKA_BKR
    )
    assert cost(alpha, 0.0) == pytest.approx(via_mixture)


def test_beta_one_fully_exchanges_populations():
    """At β = 1 the nominally-high tree is all low-loss (the paper's
    observation that the curve recovers near 1)."""
    alpha = 0.3
    high, low = trees(alpha, 1.0)
    assert mixture_of(high) == {PL: 1.0}
    # The low tree absorbed all alpha*N genuinely-high-loss members.
    assert mixture_of(low)[PH] == pytest.approx(alpha / (1.0 - alpha))


def test_sizes_are_invariant_in_beta():
    for beta in (0.0, 0.2, 0.5, 0.8, 1.0):
        parts = trees(0.3, beta)
        assert sum(p.size for p in parts) == pytest.approx(N)
        assert parts[0].size == pytest.approx(N * 0.3)


def test_mixtures_always_normalized():
    for beta in (0.0, 0.1, 0.37, 0.9, 1.0):
        for tree in trees(0.25, beta):
            assert sum(f for __, f in tree.mixture) == pytest.approx(1.0)
            assert all(f > 0 for __, f in tree.mixture)


def test_misplacement_never_beats_perfect_placement():
    """β > 0 costs at least as much as β = 0 — misplacement only hurts."""
    baseline = cost(0.3, 0.0)
    for beta in (0.1, 0.3, 0.5, 0.7, 0.9):
        assert cost(0.3, beta) >= baseline - 1e-9


def test_cost_recovers_near_full_exchange():
    """The Fig. 7 hump: mid-range β is worse than β = 1."""
    assert cost(0.3, 1.0) < cost(0.3, 0.5)


def test_degenerate_alpha_endpoints():
    assert len(trees(0.0, 0.0)) == 1
    parts = trees(1.0, 0.0)
    assert len(parts) == 1 and parts[0].size == pytest.approx(N)


def test_capacity_overflow_raises():
    # beta * alpha > 1 - alpha: more swapped-in members than the low tree holds.
    with pytest.raises(ValueError, match="swap count exceeds"):
        trees(0.8, 0.5)


@pytest.mark.parametrize("bad_alpha", [-0.1, 1.1])
def test_alpha_validation(bad_alpha):
    with pytest.raises(ValueError, match="high_fraction"):
        trees(bad_alpha, 0.0)


@pytest.mark.parametrize("bad_beta", [-0.01, 1.01])
def test_beta_validation(bad_beta):
    with pytest.raises(ValueError, match="misplaced_fraction"):
        trees(0.3, bad_beta)
