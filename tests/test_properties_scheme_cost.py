"""Hypothesis properties of ``scheme_cost`` against its primitives."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import COUNTED, FEC, LOSSLESS, WKA_BKR, Partition, scheme_cost

TRANSPORTS = {"counted": COUNTED, "wka-bkr": WKA_BKR, "fec": FEC}


@st.composite
def mixtures(draw):
    rates = draw(st.lists(st.sampled_from([0.0, 0.01, 0.02, 0.05, 0.2, 0.3]),
                          min_size=1, max_size=3, unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(rates), max_size=len(rates)))
    total = sum(weights)
    return tuple((rate, weight / total) for rate, weight in zip(rates, weights))


partitions = st.builds(
    Partition, size=st.floats(1.0, 4096.0), departures=st.floats(0.0, 300.0),
    mixture=mixtures(),
)
schemes = st.lists(partitions, min_size=1, max_size=4)
degrees = st.integers(2, 6)
transports = st.sampled_from(sorted(TRANSPORTS))


def tree_price(transport, part, degree):
    return transport.tree(part.size, part.departures, part.mixture, degree)


@settings(max_examples=60, deadline=None)
@given(part=partitions, degree=degrees, name=transports)
def test_one_partition_is_its_tree_price(part, degree, name):
    transport = TRANSPORTS[name]
    assert scheme_cost([part], transport, degree) == tree_price(transport, part, degree)


# The forest on which the former size-proportional composition moved by
# 22 ulps under one reorder (its split divided by a total summed in list
# order); here departures belong to the partitions, so only the sum moves.
SIZES = (1.0, 254.0, 1.435344378651422, 1.435344378651422)
SPREAD = [Partition(size, 30 * size / sum(SIZES), LOSSLESS) for size in SIZES]


@settings(max_examples=60, deadline=None)
@given(parts=schemes, degree=degrees, name=transports, data=st.data())
@example(parts=SPREAD, degree=2, name="wka-bkr", data=None)
def test_order_does_not_matter(parts, degree, name, data):
    reordered = data.draw(st.permutations(parts)) if data else [parts[i] for i in (0, 2, 3, 1)]
    a = scheme_cost(parts, TRANSPORTS[name], degree)
    b = scheme_cost(reordered, TRANSPORTS[name], degree)
    # A float sum of n non-negative terms is off its exact value by at most
    # (n - 1) rounding units, so two orders of it by at most 2n units; one
    # ulp is not a bound (a 2-ulp reorder of three WKA-BKR partitions
    # exists).  n counts every partition price and every stitch term.
    terms = 2 * len(parts)
    assert math.isclose(a, b, rel_tol=terms * 2.0**-52, abs_tol=0.0)


@settings(max_examples=60, deadline=None)
@given(parts=schemes, degree=degrees, name=transports)
def test_cost_is_partition_prices_plus_stitch(parts, degree, name):
    """Arbitrary per-partition departures, not only size-proportional."""
    transport = TRANSPORTS[name]
    expected = 0.0
    for part in parts:
        expected += tree_price(transport, part, degree)
    if len(parts) > 1 and any(part.departures > 0 for part in parts):
        for part in parts:
            expected += transport.stitch(part.size, part.mixture)
    assert scheme_cost(parts, transport, degree) == expected


@settings(max_examples=40, deadline=None)
@given(parts=schemes, degree=degrees, name=transports)
def test_no_stitch_without_departures_or_with_one_partition(parts, degree, name):
    transport = TRANSPORTS[name]
    idle = [Partition(p.size, 0.0, p.mixture) for p in parts]
    assert scheme_cost(idle, transport, degree) == sum(
        tree_price(transport, part, degree) for part in idle
    )
    assert scheme_cost(parts[:1], transport, degree) == tree_price(transport, parts[0], degree)


@pytest.mark.parametrize("name", sorted(TRANSPORTS))
def test_stitch_present_with_two_partitions_and_a_departure(name):
    transport = TRANSPORTS[name]
    parts = [Partition(500.0, 4.0, ((0.2, 1.0),)), Partition(300.0, 0.0, ((0.02, 1.0),))]
    stitch = sum(transport.stitch(p.size, p.mixture) for p in parts)
    prices = sum(tree_price(transport, p, 4) for p in parts)
    assert scheme_cost(parts, transport) == pytest.approx(prices + stitch)
    assert (stitch > 0) == (transport is WKA_BKR)
