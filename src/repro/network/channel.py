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
A stream is built when an audience holding the receiver is first
resolved — by :meth:`MulticastChannel.prepare` or by a draw — not at
``subscribe``: a ``random.Random`` is 2.5 KB and a sha512 seeding, which
a receiver that is never drawn for (every member of a cost-only run)
does not pay.

A receiver whose loss process is exactly a :class:`BernoulliLoss` (the
paper's model, and the only process the simulator subscribes) has its
rate in a column beside its stream.  An audience made only of such
receivers is drawn in one C-level pass, ``compress(ids, map(lt,
map(Random.random, streams), rates))``: the one ``random() < rate`` per
receiver on its own stream that ``BernoulliLoss.lost`` takes, so every
stream advances exactly as the per-receiver loop would advance it.  An
audience holding any other loss process takes the per-receiver loop, and
so does a prepared audience the subscriptions changed under.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import compress, filterfalse
from operator import ge, lt
from typing import (
    Collection,
    Dict,
    Generic,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    TypeVar,
)

from repro.network.loss import BernoulliLoss, LossProcess

PacketT = TypeVar("PacketT")

# The C method every stream draws with (bound here: tests may swap the
# module's ``random`` for a constructor-counting stand-in).
_uniform = random.Random.random

#: An all-Bernoulli audience as columns: the subscribed ids in audience
#: order (repeats kept), their streams, their rates, and the set of those
#: ids (``None`` when one repeats, so it draws once per occurrence).
_Columns = Tuple[List[str], List[random.Random], List[float], Optional[Set[str]]]


@dataclass
class DeliveryReport(Generic[PacketT]):
    """Outcome of one multicast: who received the packet."""

    packet: PacketT
    delivered_to: Set[str] = field(default_factory=set)
    lost_at: Set[str] = field(default_factory=set)


class PreparedAudience:
    """An audience :meth:`MulticastChannel.prepare` resolved once, for every
    multicast to it while the channel's subscriptions stay as they were.

    It iterates, sizes and tests membership as the audience it was
    prepared from (ids in their order, repeats kept).
    """

    __slots__ = ("ids", "generation", "columns")

    def __init__(
        self, ids: Tuple[str, ...], generation: object, columns: Optional[_Columns]
    ) -> None:
        self.ids = ids
        self.generation = generation
        #: ``None`` when a receiver has another loss process: the loop draws
        self.columns = columns

    def __iter__(self) -> Iterator[str]:
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, receiver_id: object) -> bool:
        return receiver_id in self.ids


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
        #: receiver -> loss rate, for receivers whose process is exactly a
        #: BernoulliLoss (its rate is fixed at construction)
        self._rates: Dict[str, float] = {}
        #: a fresh token on every subscription change: a prepared audience
        #: is current only on the channel, and the subscriptions, it was
        #: prepared under
        self._generation = object()
        self.packets_sent = 0
        self.receptions = 0
        self.losses = 0

    def subscribe(self, receiver_id: str, loss: LossProcess) -> None:
        """Add a receiver with its loss process."""
        if receiver_id in self._receivers:
            raise ValueError(f"receiver {receiver_id!r} already subscribed")
        self._receivers[receiver_id] = loss
        if type(loss) is BernoulliLoss:
            self._rates[receiver_id] = loss.loss_rate
        self._generation = object()

    def unsubscribe(self, receiver_id: str) -> None:
        """Remove a receiver (e.g. on group departure)."""
        if self._receivers.pop(receiver_id, None) is not None:
            self._rates.pop(receiver_id, None)
            self._streams.pop(receiver_id, None)
            self._generation = object()

    def subscribers(self) -> List[str]:
        """Current receiver ids (unordered)."""
        return list(self._receivers)

    def __contains__(self, receiver_id: str) -> bool:
        return receiver_id in self._receivers

    def subscribed(self, ids: Iterable[str]) -> List[str]:
        """The ids among ``ids`` subscribed now, in their order."""
        return list(filter(self._receivers.__contains__, ids))

    def unsubscribed(self, ids: Iterable[str]) -> List[str]:
        """The ids among ``ids`` not subscribed now, in their order."""
        return list(filterfalse(self._receivers.__contains__, ids))

    def loss_of(self, receiver_id: str) -> LossProcess:
        """The loss process attached to a receiver."""
        try:
            return self._receivers[receiver_id]
        except KeyError:
            raise KeyError(f"receiver {receiver_id!r} not subscribed") from None

    def loss_rates(self, ids: Iterable[str]) -> Dict[str, float]:
        """``receiver -> mean loss rate`` for the subscribed ids among
        ``ids``: the rate column where it has the receiver, else its loss
        process's ``mean_loss``.  Unsubscribed ids are left out."""
        ids = list(ids)
        rates = self._rates
        column = list(filter(rates.__contains__, ids))
        found = dict(zip(column, map(rates.__getitem__, column)))
        if len(column) < len(ids):
            receivers = self._receivers
            for rid in filterfalse(rates.__contains__, ids):
                loss = receivers.get(rid)
                if loss is not None:
                    found[rid] = loss.mean_loss
        return found

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

    def prepare(self, audience: Collection[str]) -> PreparedAudience:
        """Resolve ``audience`` once for several multicasts to it.

        A multicast to the result draws exactly as one to ``audience``
        would, without looking its receivers up again — until a receiver
        subscribes or unsubscribes, after which it falls back to the
        per-receiver loop over the ids it was prepared from.
        """
        ids = tuple(audience)
        return PreparedAudience(ids, self._generation, self._columns(ids))

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
            the sparseness property).  A :meth:`prepare`-d audience skips
            resolving it again.
        """
        report = self._draw(packet, audience)
        self._count(report)
        return report

    def _columns(self, ids: Collection[str]) -> Optional[_Columns]:
        """``ids`` as draw columns, building the streams not built yet;
        ``None`` if a subscribed receiver among them has another loss
        process.  Unsubscribed ids are left out."""
        rates = self._rates
        drawn = list(filter(rates.__contains__, ids))
        if len(drawn) < len(ids) and any(
            map(self._receivers.__contains__, filterfalse(rates.__contains__, ids))
        ):
            return None
        streams = list(map(self._streams.get, drawn))
        if not all(streams):  # a stream not built yet is None
            streams = [
                stream or self.stream_of(rid) for rid, stream in zip(drawn, streams)
            ]
        if type(ids) is set and len(drawn) == len(ids):
            # Every id is drawn: a set audience is its own membership set
            # (read only — the outcome sets are new).
            members: Optional[Set[str]] = ids
        else:
            members = set(drawn)
            if len(members) < len(drawn):
                members = None
        return drawn, streams, list(map(rates.__getitem__, drawn)), members

    def _draw(
        self, packet: PacketT, audience: Optional[Collection[str]]
    ) -> DeliveryReport[PacketT]:
        """One steady-state draw per subscribed receiver of the audience."""
        if type(audience) is PreparedAudience:
            columns = audience.columns
            if columns is None or audience.generation is not self._generation:
                return self._draw_each(packet, audience.ids)
        else:
            columns = self._columns(
                self._receivers.keys() if audience is None else audience
            )
            if columns is None:
                return self._draw_each(packet, audience)
        drawn, streams, rates, members = columns
        if members is None:
            # A repeated id draws once per occurrence, and lands in each
            # outcome set one of its draws gave.
            draws = list(map(_uniform, streams))
            return DeliveryReport(
                packet,
                set(compress(drawn, map(ge, draws, rates))),
                set(compress(drawn, map(lt, draws, rates))),
            )
        lost = set(compress(drawn, map(lt, map(_uniform, streams), rates)))
        return DeliveryReport(packet, members - lost, lost)

    def _draw_each(
        self, packet: PacketT, audience: Optional[Collection[str]]
    ) -> DeliveryReport[PacketT]:
        """The per-receiver loop: for an audience holding another loss
        process, and for a prepared one the subscriptions changed under."""
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
