"""Per-receiver packet-loss processes."""

from __future__ import annotations

import random
from typing import Protocol


class LossProcess(Protocol):
    """A receiver's loss process: one boolean per transmitted packet."""

    def lost(self, rng: random.Random) -> bool:
        """Whether the next packet is lost at this receiver."""
        ...

    @property
    def mean_loss(self) -> float:
        """Long-run loss probability."""
        ...


class BernoulliLoss:
    """Independent per-packet loss with a fixed rate — the paper's model.

    A :class:`~repro.network.channel.MulticastChannel` reads the rate once,
    at ``subscribe``, into the column it draws whole audiences from.
    """

    def __init__(self, loss_rate: float) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self.loss_rate = loss_rate

    def lost(self, rng: random.Random) -> bool:
        return rng.random() < self.loss_rate

    @property
    def mean_loss(self) -> float:
        return self.loss_rate

    def __repr__(self) -> str:  # pragma: no cover
        return f"BernoulliLoss({self.loss_rate})"


class GilbertElliottLoss:
    """Two-state bursty loss (extension; not used by the paper's models).

    The channel alternates between a *good* state (loss ``good_loss``) and a
    *bad* state (loss ``bad_loss``), with per-packet transition
    probabilities ``p_good_to_bad`` and ``p_bad_to_good``.  The stationary
    mean loss is exposed so experiments can match it to a Bernoulli rate
    and isolate the effect of burstiness.
    """

    def __init__(
        self,
        p_good_to_bad: float = 0.01,
        p_bad_to_good: float = 0.25,
        good_loss: float = 0.0,
        bad_loss: float = 0.5,
    ) -> None:
        for name, value in (
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if p_good_to_bad == 0.0 and p_bad_to_good == 0.0:
            raise ValueError(
                "a chain with no transitions has no stationary mean; "
                "use BernoulliLoss for a memoryless process"
            )
        for name, value in (("good_loss", good_loss), ("bad_loss", bad_loss)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.good_loss = good_loss
        self.bad_loss = bad_loss
        self._bad = False

    def lost(self, rng: random.Random) -> bool:
        if self._bad:
            if rng.random() < self.p_bad_to_good:
                self._bad = False
        else:
            if rng.random() < self.p_good_to_bad:
                self._bad = True
        rate = self.bad_loss if self._bad else self.good_loss
        return rng.random() < rate

    @property
    def mean_loss(self) -> float:
        stationary_bad = self.p_good_to_bad / (self.p_good_to_bad + self.p_bad_to_good)
        return stationary_bad * self.bad_loss + (1 - stationary_bad) * self.good_loss

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"GilbertElliottLoss(gb={self.p_good_to_bad}, bg={self.p_bad_to_good}, "
            f"good={self.good_loss}, bad={self.bad_loss})"
        )
