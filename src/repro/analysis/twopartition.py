"""Section 3.3: the two-partition steady-state model.

The group is a two-class open queueing system (Fig. 2 of the paper):
joins arrive at rate ``J`` per rekey period ``Tp``, a fraction ``alpha``
from class Cs (exponential durations, mean ``Ms``) and the rest from class
Cl (mean ``Ml``).  Every joiner enters the S-partition; survivors of the
S-period ``Ts = K * Tp`` migrate to the L-partition in the periodic batch.

Steady-state balance (eqs. 1–7) yields the per-period flows.  The
per-period rekeying costs (eqs. 8–10) are partitions of this steady state,
priced by :func:`repro.analysis.schemes.scheme_costs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral

from repro.members.durations import exponential_departure_probability


@dataclass(frozen=True)
class TwoPartitionParameters:
    """Model inputs; defaults are the paper's Table 1."""

    group_size: float = 65_536.0
    degree: int = 4
    rekey_period: float = 60.0
    k_periods: int = 10
    short_mean: float = 180.0
    long_mean: float = 10_800.0
    alpha: float = 0.8

    def __post_init__(self) -> None:
        for name in ("degree", "k_periods"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.group_size <= 0:
            raise ValueError("group size must be positive")
        if self.degree < 2:
            raise ValueError("degree must be at least 2")
        if self.rekey_period <= 0:
            raise ValueError("rekey period must be positive")
        if self.k_periods < 0:
            raise ValueError("K must be non-negative")
        if self.short_mean <= 0 or self.long_mean <= 0:
            raise ValueError("class means must be positive")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")

    @property
    def s_period(self) -> float:
        """``Ts = K * Tp``."""
        return self.k_periods * self.rekey_period

    def with_k(self, k_periods: int) -> "TwoPartitionParameters":
        return replace(self, k_periods=k_periods)

    def with_alpha(self, alpha: float) -> "TwoPartitionParameters":
        return replace(self, alpha=alpha)

    def with_group_size(self, group_size: float) -> "TwoPartitionParameters":
        return replace(self, group_size=group_size)


@dataclass(frozen=True)
class SteadyState:
    """Per-period steady-state quantities (Section 3.3.1 notation).

    All values are expectations and therefore generally fractional.
    """

    joins: float  # J        — joins (= departures) per period
    n_class_short: float  # Ncs — class Cs members in the group
    n_class_long: float  # Ncl — class Cl members in the group
    n_short: float  # Ns  — members in the S-partition
    n_long: float  # Nl  — members in the L-partition
    l_class_short: float  # Lcs — class Cs departures per period
    l_class_long: float  # Lcl — class Cl departures per period
    l_short: float  # Ls  — departures from the S-partition per period
    l_long: float  # Ll  — departures from the L-partition per period
    l_migrated: float  # Lm — S-to-L migrations per period (= Ll)


def steady_state(params: TwoPartitionParameters) -> SteadyState:
    """Solve eqs. (1)–(7) for the per-period steady state."""
    p = params
    pr_short = exponential_departure_probability(p.rekey_period, p.short_mean)
    pr_long = exponential_departure_probability(p.rekey_period, p.long_mean)

    # N = Ncs + Ncl with Ncs = alpha*J / Pr(Tp, Ms), Ncl = (1-alpha)*J / Pr(Tp, Ml)
    # (eqs. 3-5) => solve for J.
    denom = p.alpha / pr_short + (1.0 - p.alpha) / pr_long
    joins = p.group_size / denom
    n_class_short = p.alpha * joins / pr_short
    n_class_long = (1.0 - p.alpha) * joins / pr_long
    l_class_short = p.alpha * joins
    l_class_long = (1.0 - p.alpha) * joins

    # Eq. (6): survivors of i full periods still sitting in the S-partition.
    n_short = 0.0
    for i in range(p.k_periods):
        age = i * p.rekey_period
        n_short += p.alpha * joins * math.exp(-age / p.short_mean)
        n_short += (1.0 - p.alpha) * joins * math.exp(-age / p.long_mean)
    n_long = p.group_size - n_short

    # Eq. (7): survivors of the whole S-period migrate.
    l_migrated = p.alpha * joins * math.exp(-p.s_period / p.short_mean) + (
        1.0 - p.alpha
    ) * joins * math.exp(-p.s_period / p.long_mean)
    l_short = joins - l_migrated
    l_long = l_migrated  # steady state: L-partition inflow = outflow

    return SteadyState(
        joins=joins,
        n_class_short=n_class_short,
        n_class_long=n_class_long,
        n_short=n_short,
        n_long=n_long,
        l_class_short=l_class_short,
        l_class_long=l_class_long,
        l_short=l_short,
        l_long=l_long,
        l_migrated=l_migrated,
    )
