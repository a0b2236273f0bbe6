"""Section 3.4: adaptive scheme selection from the observed trace.

"At the beginning of a session, the key server just maintains one key
tree; later, from its collected trace data it can compute the group
statistics such as Ms, Ml, and alpha.  Then using our analytic model, the
key server can choose the best scheme to use.  And this process can be
repeated periodically."

:class:`AdaptiveController` implements that loop:

1. observe completed membership durations;
2. fit the two-class exponential mixture by expectation–maximization;
3. evaluate the Section 3.3 model over the candidate schemes and
   S-periods and recommend the cheapest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis import TwoPartitionParameters, scheme_costs


@dataclass(frozen=True)
class TraceEstimate:
    """Fitted two-class mixture parameters (the model's Ms, Ml, alpha)."""

    short_mean: float
    long_mean: float
    alpha: float
    samples: int
    log_likelihood: float


@dataclass(frozen=True)
class Recommendation:
    """The controller's choice: scheme name, S-period multiple, and the
    model-predicted per-period costs behind the decision."""

    scheme: str
    k_periods: int
    predicted_costs: Dict[str, float]


def fit_two_exponential(
    durations: Sequence[float],
    iterations: int = 200,
    tolerance: float = 1e-9,
) -> TraceEstimate:
    """EM fit of a two-component exponential mixture.

    Initialized from the duration median split (short component from the
    lower half, long from the upper), which is robust for the strongly
    bimodal workloads the paper targets.
    """
    data = [d for d in durations if d > 0]
    if len(data) < 4:
        raise ValueError("need at least 4 positive durations to fit")
    ordered = sorted(data)
    mid = len(ordered) // 2
    lower = ordered[:mid] or ordered[:1]
    upper = ordered[mid:] or ordered[-1:]
    short_mean = max(sum(lower) / len(lower), 1e-9)
    long_mean = max(sum(upper) / len(upper), short_mean * 1.0001)
    alpha = 0.5
    log_likelihood = -math.inf

    for __ in range(iterations):
        # E step: responsibility of the short component for each sample.
        responsibilities: List[float] = []
        new_log_likelihood = 0.0
        for d in data:
            log_short = math.log(alpha) - math.log(short_mean) - d / short_mean
            log_long = (
                math.log(1 - alpha) - math.log(long_mean) - d / long_mean
                if alpha < 1
                else -math.inf
            )
            peak = max(log_short, log_long)
            total = math.exp(log_short - peak) + math.exp(log_long - peak)
            new_log_likelihood += peak + math.log(total)
            responsibilities.append(math.exp(log_short - peak) / total)
        # M step.
        weight_short = sum(responsibilities)
        weight_long = len(data) - weight_short
        if weight_short < 1e-12 or weight_long < 1e-12:
            break
        short_mean = (
            sum(r * d for r, d in zip(responsibilities, data)) / weight_short
        )
        long_mean = (
            sum((1 - r) * d for r, d in zip(responsibilities, data)) / weight_long
        )
        alpha = weight_short / len(data)
        if short_mean > long_mean:
            short_mean, long_mean = long_mean, short_mean
            alpha = 1 - alpha
        if abs(new_log_likelihood - log_likelihood) < tolerance:
            log_likelihood = new_log_likelihood
            break
        log_likelihood = new_log_likelihood

    return TraceEstimate(
        short_mean=short_mean,
        long_mean=long_mean,
        alpha=alpha,
        samples=len(data),
        log_likelihood=log_likelihood,
    )


class AdaptiveController:
    """Collects durations and recommends the cheapest scheme (Section 3.4).

    Parameters
    ----------
    rekey_period:
        ``Tp`` of the deployment.
    degree:
        Key-tree degree.
    k_candidates:
        S-period multiples to evaluate for QT/TT.
    min_samples:
        Completed durations required before a recommendation is made.
    """

    def __init__(
        self,
        rekey_period: float = 60.0,
        degree: int = 4,
        k_candidates: Sequence[int] = tuple(range(1, 21)),
        min_samples: int = 50,
    ) -> None:
        self.rekey_period = rekey_period
        self.degree = degree
        self.k_candidates = tuple(k_candidates)
        self.min_samples = min_samples
        self._join_times: Dict[str, float] = {}
        self._durations: List[float] = []

    def observe_join(self, member_id: str, at_time: float) -> None:
        """Record a join (start of a duration sample)."""
        self._join_times[member_id] = at_time

    def observe_leave(self, member_id: str, at_time: float) -> None:
        """Record a leave, completing the member's duration sample."""
        joined = self._join_times.pop(member_id, None)
        if joined is not None and at_time >= joined:
            self._durations.append(at_time - joined)

    @property
    def completed_samples(self) -> int:
        return len(self._durations)

    def estimate(self) -> TraceEstimate:
        """Fit (Ms, Ml, alpha) from the completed durations so far."""
        return fit_two_exponential(self._durations)

    def recommend(self, group_size: float) -> Optional[Recommendation]:
        """Model-driven scheme choice, or ``None`` until enough samples.

        Evaluates one-keytree plus QT/TT over every candidate K with the
        fitted mixture and returns the global minimum (the paper keeps the
        one-keytree scheme "for applications that have very stable
        memberships", which falls out naturally when it wins).
        """
        if self.completed_samples < self.min_samples:
            return None
        estimate = self.estimate()
        base = TwoPartitionParameters(
            group_size=group_size,
            degree=self.degree,
            rekey_period=self.rekey_period,
            k_periods=0,
            short_mean=estimate.short_mean,
            long_mean=estimate.long_mean,
            alpha=estimate.alpha,
        )
        baseline = scheme_costs(base)["one-keytree"]
        best: Tuple[float, str, int] = (baseline, "one-keytree", 0)
        costs: Dict[str, float] = {"one-keytree": baseline}
        for k in self.k_candidates:
            at_k = scheme_costs(base.with_k(k))
            for scheme in ("QT-scheme", "TT-scheme"):
                cost = at_k[scheme]
                label = f"{scheme}@K={k}"
                costs[label] = cost
                if cost < best[0]:
                    best = (cost, scheme, k)
        return Recommendation(scheme=best[1], k_periods=best[2], predicted_costs=costs)
