"""Network substrate: per-receiver loss processes and a lossy multicast channel.

The paper's transport analysis assumes independent per-packet Bernoulli
loss at each receiver (eq. 13 factorizes over receivers).  The simulator
uses the same model by default and offers a Gilbert–Elliott two-state
bursty alternative as an extension for sensitivity studies.
"""

from repro.network.channel import DeliveryReport, MulticastChannel, PreparedAudience
from repro.network.loss import BernoulliLoss, GilbertElliottLoss, LossProcess

__all__ = [
    "BernoulliLoss",
    "DeliveryReport",
    "GilbertElliottLoss",
    "LossProcess",
    "MulticastChannel",
    "PreparedAudience",
]
