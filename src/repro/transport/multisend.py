"""The multi-send strawman protocol ([MSEC], Section 2.2).

Every packet of the rekey payload is multicast ``replication`` times up
front; NACK rounds then retransmit whole packets until every receiver has
every key it needs.  No per-key weighting, no re-packing — this is the
baseline WKA-BKR improves on.
"""

from __future__ import annotations

from typing import List

from repro.network.channel import MulticastChannel
from repro.transport.packets import KeyPacket, pack_indices
from repro.transport.session import (
    KeyInterestState,
    TransportResult,
    TransportTask,
    run_rounds,
)


class MultiSendProtocol:
    """Fixed-degree replication with whole-packet retransmission.

    Parameters
    ----------
    keys_per_packet:
        Packet capacity in encrypted keys.
    replication:
        How many copies of each packet the first round sends.
    max_rounds:
        Hard safety cap on NACK rounds; hitting it with receivers still
        unsatisfied raises
        :class:`~repro.transport.session.TransportExhausted`.
    """

    name = "multi-send"

    def __init__(
        self,
        keys_per_packet: int = 25,
        replication: int = 2,
        max_rounds: int = 50,
    ) -> None:
        if replication < 1:
            raise ValueError("replication must be at least 1")
        self.keys_per_packet = keys_per_packet
        self.replication = replication
        self.max_rounds = max_rounds

    def run(self, task: TransportTask, channel: MulticastChannel) -> TransportResult:
        """Deliver ``task`` over ``channel``; returns the cost accounting.

        Raises
        ------
        repro.transport.session.TransportExhausted
            When ``max_rounds`` is hit with receivers still unsatisfied.
        """
        state = _MultiSendState(self, task)
        return run_rounds(self.name, state, channel, max_rounds=self.max_rounds)


class _MultiSendState(KeyInterestState):
    """Whole packets: all of them up front, then whichever are still needed."""

    # The up-front payload goes out (and is priced) whoever listens.
    sends_idle_first_round = True

    def __init__(self, protocol: MultiSendProtocol, task: TransportTask) -> None:
        super().__init__(task)
        self.payload = pack_indices(range(len(task.keys)), protocol.keys_per_packet)
        # Round 1: every packet, replicated.
        self.to_send: List[KeyPacket] = [
            p for p in self.payload for __ in range(protocol.replication)
        ]

    def plan(self, round_index, audiences):
        return self.to_send

    def packets(self, round_index):
        yield from super().packets(round_index)
        # NACKs arrive as the round closes: retransmit, whole, exactly the
        # packets somebody still needs.  (Whoever departs before they go
        # out leaves them priced but unaddressed.)
        audiences = self.audiences
        self.to_send = [
            p for p in self.payload if any(audiences.get(i) for i in p.key_indices)
        ]
