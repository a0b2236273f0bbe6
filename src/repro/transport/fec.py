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
    """One FEC block and, as sets, the progress of everyone tracking it.

    Payload packets go out once, in round 0, and NACK rounds send parity
    only: a tracker is satisfied directly only at the last payload packet
    it wants, and only if it got every payload packet it wants.  Every
    tracker is in the audience of every packet sent to the block, so a
    pending tracker in ``by_misses[m]`` has received ``sent - m`` of them.
    """

    payload_packets: List[KeyPacket]
    #: the audience: everyone tracking the block, satisfied or not
    trackers: Set[str] = field(default_factory=set)
    #: payload seqno -> trackers wanting a key that packet carries
    need: Dict[int, Set[str]] = field(default_factory=dict)
    #: payload seqno -> trackers for whom it is the last packet they want
    ends_at: Dict[int, Set[str]] = field(default_factory=dict)
    #: trackers that missed a payload packet they want
    spoiled: Set[str] = field(default_factory=set)
    #: ``by_misses[m]``: the trackers still pending on the block that
    #: missed ``m`` of its packets
    by_misses: List[Set[str]] = field(default_factory=list)
    #: packets multicast to the block so far
    sent: int = 0
    #: the channel's resolution of ``trackers``, for every packet of the
    #: block; None until the next packet after a tracker is dropped
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
        audiences = task.audiences
        payload = pack_indices(range(len(task.keys)), protocol.keys_per_packet)
        self.seqno = len(payload)
        self.blocks: List[_Block] = []
        for offset in range(0, len(payload), protocol.block_size):
            block = _Block(
                [
                    KeyPacket(p.seqno, p.key_indices, block=len(self.blocks))
                    for p in payload[offset : offset + protocol.block_size]
                ]
            )
            self.blocks.append(block)
            # One reverse pass: a packet ends the interest of the trackers
            # wanting it that want no later packet of the block.
            trackers = block.trackers
            for packet in reversed(block.payload_packets):
                need = set().union(
                    *[audiences.get(index, ()) for index in packet.key_indices]
                )
                if need:
                    block.need[packet.seqno] = need
                    block.ends_at[packet.seqno] = need - trackers
                    trackers |= need
            block.by_misses = [set(trackers)]
        self.tracked: Set[str] = set().union(*[b.trackers for b in self.blocks])
        #: trackers still pending on a block: in one of its miss buckets
        self.pending: Set[str] = set(self.tracked)

    def addressed(self):
        # A block's audience is everyone tracking it, satisfied or not.
        return self.tracked

    def drop(self, receiver_id):
        self.tracked.discard(receiver_id)
        self.pending.discard(receiver_id)
        for block in self.blocks:
            if receiver_id in block.trackers:
                block.trackers.discard(receiver_id)
                block.audience = None
                for bucket in block.by_misses:
                    bucket.discard(receiver_id)

    def packets(self, round_index):
        for block_id, block in enumerate(self.blocks):
            if round_index == 0:
                sends = list(block.payload_packets)
                parity_count = (
                    math.ceil((self.proactivity - 1.0) * block.k)
                    if block.trackers
                    else 0
                )
            elif any(block.by_misses):
                # NACKs: the worst pending receiver, the one that missed
                # the most, sizes the block's retransmission.
                worst = max(m for m, bucket in enumerate(block.by_misses) if bucket)
                sends = []
                parity_count = block.k - (block.sent - worst)
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
                audience = block.audience = self.channel.prepare(block.trackers)
            for packet in sends:
                yield packet, audience

    def deliver(self, packet, receivers):
        block = self.blocks[packet.block]
        block.sent += 1
        by_misses = block.by_misses
        if by_misses[-1]:
            by_misses.append(set())
        # The pending trackers this packet missed move up one bucket,
        # highest bucket first so that none moves twice.
        for misses in range(len(by_misses) - 2, -1, -1):
            bucket = by_misses[misses]
            if bucket:
                lost = bucket - receivers
                if lost:
                    bucket -= lost
                    by_misses[misses + 1] |= lost
        # Whoever has now received k packets rebuilds the block.
        full = block.sent - block.k
        if 0 <= full < len(by_misses):
            by_misses[full].clear()
        # A payload packet satisfies directly the trackers it ends that got
        # every payload packet they want; parity seqnos have no ``need``.
        need = block.need.get(packet.seqno)
        if need:
            spoiled = block.spoiled
            spoiled |= need - receivers
            direct = (block.ends_at[packet.seqno] & receivers) - spoiled
            if direct:
                for bucket in by_misses:
                    bucket -= direct

    def settle(self):
        pending = self.pending
        settled = pending.difference(
            *[bucket for block in self.blocks for bucket in block.by_misses]
        )
        pending -= settled
        return settled

    def keys_pending(self):
        return sum(len(bucket) for block in self.blocks for bucket in block.by_misses)
