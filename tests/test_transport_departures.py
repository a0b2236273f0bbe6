"""Failure-injection tests: receivers that vanish mid-delivery.

A member can depart (and unsubscribe from the multicast channel) while a
rekey delivery is still retransmitting.  The transports must not spin
until ``max_rounds`` chasing a ghost — they drop unsubscribed receivers
and finish.
"""

import pytest

from repro.crypto.material import KeyGenerator
from repro.crypto.wrap import wrap_key
from repro.network.channel import MulticastChannel
from repro.network.loss import BernoulliLoss
from repro.transport.fec import ProactiveFecProtocol
from repro.transport.multisend import MultiSendProtocol
from repro.transport.wka_bkr import WkaBkrProtocol

from tests.helpers import task_of


class _VanishingLoss:
    """Loses everything, and unsubscribes its receiver after a few draws —
    simulating a member that departs mid-delivery."""

    mean_loss = 0.999

    def __init__(self, channel, receiver_id, after=3):
        self.channel = channel
        self.receiver_id = receiver_id
        self.remaining = after

    def lost(self, rng):
        self.remaining -= 1
        if self.remaining <= 0 and self.receiver_id in self.channel:
            # Not during iteration over this receiver's own multicast —
            # the channel evaluates one receiver at a time, and protocols
            # re-check membership per round.
            self.channel._receivers.pop(self.receiver_id, None)
        return True


def make_task(count=12):
    gen = KeyGenerator(71)
    wrapping = gen.generate("w")
    keys = [wrap_key(wrapping, gen.generate(f"k{i}")) for i in range(count)]
    return task_of(keys, {"healthy": set(range(count)), "ghost": set(range(count))})


PROTOCOLS = [
    MultiSendProtocol(keys_per_packet=4, max_rounds=30),
    WkaBkrProtocol(keys_per_packet=4, max_rounds=30),
    ProactiveFecProtocol(keys_per_packet=4, block_size=3, max_rounds=30),
]


@pytest.mark.parametrize("protocol", PROTOCOLS, ids=lambda p: p.name)
def test_departed_receiver_does_not_stall_delivery(protocol):
    channel = MulticastChannel(seed=5)
    channel.subscribe("healthy", BernoulliLoss(0.1))
    ghost_loss = _VanishingLoss(channel, "ghost", after=3)
    channel.subscribe("ghost", ghost_loss)

    result = protocol.run(make_task(), channel)
    assert result.satisfied
    assert result.rounds < 30  # finished well before the safety bound


@pytest.mark.parametrize("protocol", PROTOCOLS, ids=lambda p: p.name)
def test_all_receivers_departed_terminates(protocol):
    channel = MulticastChannel(seed=6)
    ghost_loss = _VanishingLoss(channel, "ghost", after=2)
    channel.subscribe("ghost", ghost_loss)
    task = make_task()
    task = task_of(task.keys, {"ghost": set(range(len(task.keys)))})
    result = protocol.run(task, channel)
    assert result.satisfied
