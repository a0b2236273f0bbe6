"""A lossy multicast channel connecting the key server to the receivers.

The channel knows every subscribed receiver's loss process; a multicast
costs one server transmission and is independently delivered-or-lost at
each receiver, matching the independence assumption of Appendix B.

Every receiver draws from its **own** deterministic RNG stream, derived
from the channel seed and the receiver id.  Subscribing or unsubscribing
one receiver therefore never shifts another receiver's loss draws — a
property the fault-injection harness (:mod:`repro.faults`) relies on to
reproduce a fault scenario exactly while varying the receiver set.
(Re-subscribing the same id restarts that id's stream from the top.)
A stream is built at the receiver's first draw, not at ``subscribe``: a
``random.Random`` is 2.5 KB and a sha512 seeding, which a receiver that
is never drawn for (every member of a cost-only run) does not pay.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Collection, Dict, Generic, List, Optional, Set, TypeVar

from repro.network.loss import LossProcess

PacketT = TypeVar("PacketT")


@dataclass
class DeliveryReport(Generic[PacketT]):
    """Outcome of one multicast: who received the packet."""

    packet: PacketT
    delivered_to: Set[str] = field(default_factory=set)
    lost_at: Set[str] = field(default_factory=set)

    @property
    def fully_delivered(self) -> bool:
        return not self.lost_at


class MulticastChannel(Generic[PacketT]):
    """A simulated lossy multicast tree.

    Parameters
    ----------
    seed:
        RNG seed; each receiver's per-id stream derives from it (on first
        use), so runs are reproducible and per-receiver draws are
        independent of the rest of the subscription set and of when the
        stream was first asked for.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._receivers: Dict[str, LossProcess] = {}
        self._streams: Dict[str, random.Random] = {}
        self.packets_sent = 0
        self.receptions = 0
        self.losses = 0

    def subscribe(self, receiver_id: str, loss: LossProcess) -> None:
        """Add a receiver with its loss process."""
        if receiver_id in self._receivers:
            raise ValueError(f"receiver {receiver_id!r} already subscribed")
        self._receivers[receiver_id] = loss

    def unsubscribe(self, receiver_id: str) -> None:
        """Remove a receiver (e.g. on group departure)."""
        self._receivers.pop(receiver_id, None)
        self._streams.pop(receiver_id, None)

    def subscribers(self) -> List[str]:
        """Current receiver ids (unordered)."""
        return list(self._receivers)

    def __contains__(self, receiver_id: str) -> bool:
        return receiver_id in self._receivers

    @property
    def receiver_count(self) -> int:
        return len(self._receivers)

    def loss_of(self, receiver_id: str) -> LossProcess:
        """The loss process attached to a receiver."""
        try:
            return self._receivers[receiver_id]
        except KeyError:
            raise KeyError(f"receiver {receiver_id!r} not subscribed") from None

    def stream_of(self, receiver_id: str) -> random.Random:
        """The per-receiver RNG stream loss draws come from."""
        if receiver_id not in self._receivers:
            raise KeyError(f"receiver {receiver_id!r} not subscribed")
        stream = self._streams.get(receiver_id)
        if stream is None:
            # str seeding hashes via sha512, stable across processes.
            stream = random.Random(f"{self.seed}/{receiver_id}")
            self._streams[receiver_id] = stream
        return stream

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------

    def multicast(
        self, packet: PacketT, audience: Optional[Collection[str]] = None
    ) -> DeliveryReport[PacketT]:
        """Send one packet; draw an independent loss at every receiver.

        Parameters
        ----------
        packet:
            Opaque payload; the channel only counts it.
        audience:
            When given, only these receivers' outcomes are *reported*
            (everyone still physically receives multicast traffic, but the
            transport only cares who among the interested set got it —
            the sparseness property).
        """
        report = self._draw(packet, audience)
        self._count(report)
        return report

    def _draw(
        self, packet: PacketT, audience: Optional[Collection[str]]
    ) -> DeliveryReport[PacketT]:
        """One steady-state draw per subscribed receiver of the audience."""
        receivers = self._receivers
        streams = self._streams
        delivered: Set[str] = set()
        lost: Set[str] = set()
        for receiver_id in list(receivers) if audience is None else audience:
            # Looked up at its own turn: a receiver unsubscribed while this
            # very packet was being delivered (a departure event fired
            # between draws) is in neither outcome set.
            loss = receivers.get(receiver_id)
            if loss is None:
                continue
            stream = streams.get(receiver_id)
            if stream is None:
                stream = self.stream_of(receiver_id)
            if loss.lost(stream):
                lost.add(receiver_id)
            else:
                delivered.add(receiver_id)
        return DeliveryReport(packet, delivered, lost)

    def _count(self, report: DeliveryReport[PacketT]) -> None:
        self.packets_sent += 1
        self.receptions += len(report.delivered_to)
        self.losses += len(report.lost_at)
