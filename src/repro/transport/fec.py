"""Proactive-FEC rekey transport in the spirit of Yang et al. [YLZL01].

Payload packets are grouped into FEC blocks of ``block_size`` packets; the
first round multicasts each block's payload along with
``ceil((proactivity - 1) * block_size)`` parity packets.  With an ideal
erasure code, a receiver reconstructs a whole block from **any** ``k`` of
the packets sent for it — so a receiver is satisfied for a block once it
has either directly received every payload packet it is interested in, or
accumulated ``k`` packets of the block in total.

After each round, receivers NACK their remaining deficit per block and the
server multicasts ``max`` deficit fresh parity packets for that block —
this is the mechanism that makes FEC transports sensitive to a high-loss
minority: the worst receiver sizes every block's retransmission, which is
exactly what the loss-homogenized key-tree organization (Section 4)
relieves.

Parity packets are priced at full packet size (``keys_per_packet`` key
units) in ``keys_sent``, matching the analytic model's accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.faults.retry import RetryPolicy
from repro.network.channel import MulticastChannel, PreparedAudience
from repro.transport.packets import KeyPacket, pack_indices
from repro.transport.session import (
    RoundState,
    TransportResult,
    TransportTask,
    run_rounds,
)


@dataclass
class _Block:
    """One FEC block and the progress of every receiver tracking it."""

    payload_packets: List[KeyPacket]
    # receiver -> seqnos of the payload packets carrying keys it wants and
    # has not directly received; its keys are everyone tracking the block
    direct_missing: Dict[str, Set[int]] = field(default_factory=dict)
    # receiver -> packets of this block received so far, for the trackers
    # still pending on it: direct_missing non-empty and count < k
    received: Dict[str, int] = field(default_factory=dict)
    # the channel's resolution of direct_missing's keys, for every packet
    # of the block; None until the next packet after a tracker is dropped
    audience: Optional[PreparedAudience] = None

    @property
    def k(self) -> int:
        return len(self.payload_packets)


class ProactiveFecProtocol:
    """Block FEC with proactive parity and max-deficit NACK rounds."""

    name = "proactive-fec"

    def __init__(
        self,
        keys_per_packet: int = 25,
        block_size: int = 16,
        proactivity: float = 1.25,
        max_rounds: int = 50,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if block_size < 1:
            raise ValueError("block_size must be positive")
        if proactivity < 1.0:
            raise ValueError("proactivity factor must be >= 1")
        if max_rounds < 1:
            raise ValueError("max_rounds must be positive")
        self.keys_per_packet = keys_per_packet
        self.block_size = block_size
        self.proactivity = proactivity
        self.max_rounds = max_rounds
        self.retry = retry

    def run(self, task: TransportTask, channel: MulticastChannel) -> TransportResult:
        """Deliver ``task`` over ``channel``; returns the cost accounting.

        Raises
        ------
        repro.transport.session.TransportExhausted
            When the round cap is hit with receivers still unsatisfied and
            no retry policy licenses abandoning them.
        """
        state = _FecState(self, task, channel)
        if not state.pending:
            return TransportResult(satisfied=True)
        return run_rounds(self.name, state, channel, self.retry, self.max_rounds)


class _FecState(RoundState):
    """Payload and proactive parity up front, then per block as much fresh
    parity as its worst pending receiver is short of ``k``."""

    # The payload is multicast (and priced) even if everyone interested
    # left before the first round.
    sends_idle_first_round = True

    def __init__(
        self,
        protocol: ProactiveFecProtocol,
        task: TransportTask,
        channel: MulticastChannel,
    ) -> None:
        self.channel = channel
        self.parity_keys = protocol.keys_per_packet
        self.proactivity = protocol.proactivity
        payload = pack_indices(range(len(task.keys)), protocol.keys_per_packet)
        self.seqno = len(payload)
        self.blocks: List[_Block] = []
        packet_of_key: Dict[int, KeyPacket] = {}
        for offset in range(0, len(payload), protocol.block_size):
            block = _Block(
                [
                    KeyPacket(p.seqno, p.key_indices, block=len(self.blocks))
                    for p in payload[offset : offset + protocol.block_size]
                ]
            )
            self.blocks.append(block)
            for packet in block.payload_packets:
                for index in packet.key_indices:
                    packet_of_key[index] = packet
        # Register interest: a receiver tracks each block containing any of
        # its keys, with the payload packets it would need directly.
        #: receiver -> the blocks it tracks
        self.tracking: Dict[str, List[_Block]] = {}
        #: receiver -> how many of its blocks it is still pending on
        self.pending: Dict[str, int] = {}
        for rid, wanted in task.interest.items():
            for index in wanted:
                packet = packet_of_key[index]
                block = self.blocks[packet.block]
                missing = block.direct_missing.get(rid)
                if missing is None:
                    block.direct_missing[rid] = {packet.seqno}
                    block.received[rid] = 0
                    self.tracking.setdefault(rid, []).append(block)
                else:
                    missing.add(packet.seqno)
            if wanted:
                self.pending[rid] = len(self.tracking[rid])

    def addressed(self):
        # A block's audience is everyone tracking it, satisfied or not.
        return self.tracking

    def drop(self, receiver_id):
        for block in self.tracking.pop(receiver_id):
            del block.direct_missing[receiver_id]
            block.received.pop(receiver_id, None)
            block.audience = None
        self.pending.pop(receiver_id, None)

    def packets(self, round_index):
        for block_id, block in enumerate(self.blocks):
            if round_index == 0:
                sends = list(block.payload_packets)
                parity_count = (
                    math.ceil((self.proactivity - 1.0) * block.k)
                    if block.direct_missing
                    else 0
                )
            elif block.received:
                # NACKs: the worst pending receiver sizes the block's
                # retransmission.
                sends = []
                parity_count = block.k - min(block.received.values())
            else:
                continue
            for __ in range(parity_count):
                sends.append(
                    KeyPacket(
                        seqno=self.seqno, key_indices=(), block=block_id, is_parity=True
                    )
                )
                self.seqno += 1
            audience = block.audience
            if audience is None:
                audience = block.audience = self.channel.prepare(
                    block.direct_missing.keys()
                )
            for packet in sends:
                yield packet, audience

    def deliver(self, packet, receivers):
        block = self.blocks[packet.block]
        received, missing_of, k = block.received, block.direct_missing, block.k
        satisfied = []
        # Only receivers still pending on the block have progress to make.
        for rid in received.keys() & receivers:
            count = received[rid] = received[rid] + 1
            missing = missing_of[rid]
            if not packet.is_parity:
                missing.discard(packet.seqno)
            if count >= k or not missing:
                del received[rid]
                if self.pending[rid] > 1:
                    self.pending[rid] -= 1
                else:
                    del self.pending[rid]
                    satisfied.append(rid)
        return satisfied

    def keys_pending(self):
        return sum(len(block.received) for block in self.blocks)
