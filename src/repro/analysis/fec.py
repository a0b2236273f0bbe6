"""Section 4.4: a proactive-FEC rekey-transport bandwidth model.

The paper reports (without formulas) that loss-homogenization helps even
more — up to 25.7% at ``ph = 20%``, ``pl = 2%``, ``alpha = 0.1`` — when the
rekey transport is the proactive-FEC protocol of Yang et al. [YLZL01],
because FEC parity is sized by the *worst* receivers of each block.  This
module models that protocol in the [YLZL01] spirit:

* the rekey payload (``Ne(N, L)`` encrypted keys) is packed into payload
  packets of ``keys_per_packet`` keys, grouped into FEC blocks of ``k``
  packets;
* the server proactively sends ``ceil((rho - 1) * k)`` parity packets per
  block along with the payload (proactivity factor ``rho``);
* a receiver recovers a block once it has received any ``k`` of the
  packets sent for it (ideal erasure code); after each round receivers
  NACK their remaining deficit and the server multicasts the *maximum*
  deficit requested — so one high-loss receiver inflates every round;
* every member of a tree is interested in every block of that tree's
  payload (keys for the upper levels are needed by nearly everyone, and
  [YLZL01]-style block packing does not segregate per-member interest the
  way WKA does).

The expected server cost per block is computed by iterating the cumulative
reception process: after ``S`` packets have been multicast, a receiver
with loss rate ``p`` holds ``Bin(S, 1-p)`` of them and is satisfied once
that reaches ``k``; each round adds the expected maximum remaining deficit
across all interested receivers.  Deficits are evaluated exactly from
binomial tails in log-space (populations reach 65 536 receivers).

This is an approximation of the full [YLZL01] protocol (the paper gives no
closed form for its FEC results), but it preserves exactly the mechanism
the optimization exploits: parity is priced by the worst class present in
a block's audience.  See DESIGN.md §4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from repro.analysis.batchcost import expected_batch_cost
from repro.analysis.wka import LossMixture, _mixture_key, _validate_mixture


@dataclass(frozen=True)
class FecParameters:
    """Transport knobs, defaults in the [YLZL01] ballpark."""

    keys_per_packet: int = 25
    block_size: int = 16
    proactivity: float = 1.25
    max_rounds: int = 30

    def __post_init__(self) -> None:
        if self.keys_per_packet < 1:
            raise ValueError("keys_per_packet must be positive")
        if self.block_size < 1:
            raise ValueError("block_size must be positive")
        if self.proactivity < 1.0:
            raise ValueError("proactivity factor must be >= 1")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be positive")


@lru_cache(maxsize=1 << 16)
def _log_binom_cdf(n: int, success: float, threshold: int) -> float:
    """``log P[Bin(n, success) <= threshold]`` computed from the tail sum.

    Memoized: the block-cost iteration re-evaluates the same
    ``(sent, 1-p, deficit)`` tails for every block of a payload and for
    every sweep point sharing a loss class.
    """
    if threshold >= n:
        return 0.0
    if threshold < 0:
        return -math.inf
    # Sum the smaller side for accuracy.
    log_terms = []
    for j in range(0, threshold + 1):
        log_terms.append(
            math.lgamma(n + 1)
            - math.lgamma(j + 1)
            - math.lgamma(n - j + 1)
            + (j * math.log(success) if success > 0 else (0.0 if j == 0 else -math.inf))
            + ((n - j) * math.log1p(-success) if success < 1 else (0.0 if j == n else -math.inf))
        )
    peak = max(log_terms)
    if peak == -math.inf:
        return -math.inf
    total = sum(math.exp(t - peak) for t in log_terms)
    return peak + math.log(total)


def _expected_block_cost_impl(
    block_packets: int,
    receivers: float,
    mixture: Sequence,
    params: FecParameters,
) -> float:
    _validate_mixture(mixture)
    if block_packets <= 0 or receivers <= 0:
        return 0.0
    k = block_packets
    sent = k + math.ceil((params.proactivity - 1.0) * k)
    for __ in range(params.max_rounds):
        # E[max deficit] = sum_{t>=1} P[max deficit >= t]
        #               = sum_{t>=1} (1 - prod_j P[D_r <= t-1]^{n_j})
        # with D_r = max(0, k - Bin(sent, 1 - p_r)).
        expected_max = 0.0
        for t in range(1, k + 1):
            log_all_below = 0.0
            for rate, fraction in mixture:
                n_j = fraction * receivers
                if n_j <= 0:
                    continue
                # P[D <= t-1] = P[Bin(sent, 1-p) >= k - (t-1)]
                lo = k - t  # receiver fails if received <= k - t
                log_fail = _log_binom_cdf(sent, 1.0 - rate, lo)
                prob_ok = -math.expm1(log_fail) if log_fail > -700 else 1.0
                if prob_ok <= 0.0:
                    log_all_below = -math.inf
                    break
                log_all_below += n_j * math.log(prob_ok)
            expected_max += -math.expm1(log_all_below)
        if expected_max < 0.5:
            break
        sent += int(round(expected_max)) or 1
    return float(sent)


_expected_block_cost_cached = lru_cache(maxsize=1 << 12)(_expected_block_cost_impl)


def expected_block_cost(
    block_packets: int,
    receivers: float,
    mixture: LossMixture,
    params: FecParameters = FecParameters(),
) -> float:
    """Expected packets multicast for one FEC block of ``block_packets``
    payload packets to satisfy ``receivers`` interested receivers.

    Memoized on ``(block, receivers, canonical mixture, params)`` —
    ``FecParameters`` is frozen, so it hashes by value.  Every full-size
    block of a payload prices identically, and sweep points sharing a tree
    population reuse each other's rounds.  ``.cache_info()`` /
    ``.cache_clear()`` expose the cache; ``.__wrapped__`` bypasses it.
    """
    return _expected_block_cost_cached(
        int(block_packets), float(receivers), _mixture_key(mixture), params
    )


expected_block_cost.cache_info = _expected_block_cost_cached.cache_info
expected_block_cost.cache_clear = _expected_block_cost_cached.cache_clear
expected_block_cost.__wrapped__ = _expected_block_cost_impl


def fec_tree_cost(
    size: float,
    departures: float,
    mixture: LossMixture,
    degree: int = 4,
    params: FecParameters = FecParameters(),
) -> float:
    """Expected keys transmitted to rekey one tree over proactive FEC."""
    if size <= 1 or departures <= 0:
        return 0.0
    payload_keys = expected_batch_cost(size, departures, degree)
    payload_packets = payload_keys / params.keys_per_packet
    if payload_packets <= 0:
        return 0.0
    full_blocks = int(payload_packets // params.block_size)
    tail_packets = payload_packets - full_blocks * params.block_size
    cost_packets = full_blocks * expected_block_cost(
        params.block_size, size, mixture, params
    )
    if tail_packets > 1e-9:
        tail_block = max(1, int(round(tail_packets)))
        # Pro-rate the tail block so the cost varies smoothly with payload.
        cost_packets += (
            expected_block_cost(tail_block, size, mixture, params)
            * tail_packets
            / tail_block
        )
    return cost_packets * params.keys_per_packet
