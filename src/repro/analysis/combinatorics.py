"""Stable combinatorial primitives for the analytic models.

The central quantity (eq. 11 of the paper) is the probability that a key
node with ``S`` member leaves below it is updated when ``L`` of the group's
``N`` leaves depart, assuming departures are uniformly distributed::

    P = 1 - C(N - S, L) / C(N, L)

Group sizes reach 262 144 in Fig. 5, so binomials are evaluated in
log-space: as a sum of ``log1p`` terms for up to 256 integer departures,
via ``lgamma`` above that.  The steady-state model of Section 3.3 produces
*fractional* expected member and departure counts (e.g. ``Ns = 7 864.3``),
so all functions accept real-valued arguments through the gamma-function
extension of the binomial coefficient — the natural smooth interpolation.
"""

from __future__ import annotations

import math
from functools import lru_cache

#: Up to this many (integer) departures, eq. (11) is evaluated as a
#: product of L factors rather than through ``lgamma``.
_PRODUCT_MAX_DEPARTURES = 256


@lru_cache(maxsize=1 << 16)
def log_choose(n: float, k: float) -> float:
    """``log C(n, k)`` via the gamma function; real-valued ``n`` and ``k``.

    Defined for ``0 <= k <= n``.  Raises ``ValueError`` outside that range,
    where the combinatorial meaning is lost.

    Memoized: the figure sweeps evaluate the same ``(N, L)`` pairs once per
    subtree size per scheme, so hit rates are high and the float keys are
    exact (no rounding is applied before lookup).
    """
    if k < 0 or k > n:
        raise ValueError(f"require 0 <= k <= n, got n={n}, k={k}")
    return (
        math.lgamma(n + 1.0) - math.lgamma(k + 1.0) - math.lgamma(n - k + 1.0)
    )


@lru_cache(maxsize=1 << 16)
def subtree_hit_probability(group_size: float, departures: float, subtree: float) -> float:
    """Probability a subtree of ``subtree`` leaves contains >= 1 departure.

    Eq. (11): ``1 - C(N - S, L) / C(N, L)`` with ``L`` departures uniformly
    placed among ``N`` leaves.  Saturates sensibly at the boundaries:
    no departures -> 0; more departures than leaves outside the subtree
    (``L > N - S``) -> 1.
    """
    if group_size < 0 or departures < 0 or subtree < 0:
        raise ValueError("arguments must be non-negative")
    if subtree == 0 or departures == 0:
        return 0.0
    if departures > group_size - subtree:
        return 1.0
    if departures <= _PRODUCT_MAX_DEPARTURES and float(departures).is_integer():
        # C(N - S, L) / C(N, L) = prod_{i<L} (1 - S / (N - i)), exact for
        # integer L and real N, S.  The lgamma difference below cancels
        # two terms of size ~N log N, which leaves a relative error of
        # 1.5e-5 at N = 8^6, L = 1 (where the answer is just S / N).
        log_ratio = math.fsum(
            math.log1p(-subtree / (group_size - i)) for i in range(int(departures))
        )
    else:
        log_ratio = log_choose(group_size - subtree, departures) - log_choose(
            group_size, departures
        )
    return -math.expm1(log_ratio)
