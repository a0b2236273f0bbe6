"""Transport tasks, results and the one NACK-round engine every rekey
transport protocol runs on.

A protocol describes a delivery as a :class:`RoundState` — which packets
with which audiences go out in round *r*, what a delivery does to its own
sets, and whom a round satisfied; :func:`run_rounds` owns everything else
about a delivery: the round cap, receivers departing mid-delivery, retry
backoff and abandonment, latency stamps (one per receiver, at the round
that settled it), exhaustion and the observability records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Collection,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.crypto.wrap import EncryptedKey
from repro.faults.retry import RetryPolicy
from repro.network.channel import MulticastChannel
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.transport.packets import KeyPacket


@dataclass
class TransportTask:
    """One rekey delivery job.

    Attributes
    ----------
    keys:
        The encrypted keys of the rekey message, indexed by position (the
        payload's :class:`~repro.crypto.wrap.WrapBatch` itself, or any
        sequence of records; transports read only its length).
    audiences:
        ``key index -> receivers`` that must obtain that key, as the server
        names them (:meth:`~repro.server.partitioned.PartitionedServer.audiences`);
        a key nobody needs has no entry.  Transports copy a set before they
        consume it.  An index outside the payload is refused (``ValueError``).
    """

    keys: Sequence[EncryptedKey]
    audiences: Dict[int, Set[str]]

    def __post_init__(self) -> None:
        audiences, size = self.audiences, len(self.keys)
        if audiences and (min(audiences) < 0 or max(audiences) >= size):
            index = min(audiences) if min(audiences) < 0 else max(audiences)
            raise ValueError(
                f"receiver {min(audiences[index])!r} named for key index "
                f"{index}, outside the payload's {size} keys"
            )


@dataclass
class TransportResult:
    """Outcome and cost of delivering one rekey payload.

    ``satisfied`` covers every receiver the transport was still
    responsible for at the end: receivers recorded in ``abandoned``
    (dropped by a :class:`~repro.faults.retry.RetryPolicy` after its
    per-receiver threshold) no longer count against it — they are the
    server's problem now, via the unicast catch-up path.  ``elapsed`` is
    the virtual time the delivery occupied: the sum of the retry policy's
    inter-round backoff delays (zero without a policy).

    ``completed`` records, per satisfied receiver, the virtual elapsed
    time at the round where its wanted set emptied — the raw material for
    member-level time-to-new-DEK accounting.  Receivers satisfied in
    round 0 complete at 0.0; abandoned or departed receivers never
    appear (their stories close via resync or departure, not here).
    """

    rounds: int = 0
    packets_sent: int = 0
    keys_sent: int = 0
    parity_packets: int = 0
    satisfied: bool = False
    per_round_packets: List[int] = field(default_factory=list)
    abandoned: Set[str] = field(default_factory=set)
    #: receivers that needed at least one retransmission round (still
    #: IN_SYNC: their lateness is a latency, :mod:`repro.obs.latency`)
    late: Set[str] = field(default_factory=set)
    elapsed: float = 0.0
    #: receiver_id -> virtual elapsed seconds when its interest was met
    completed: Dict[str, float] = field(default_factory=dict)

    def merge_round(self, packets: int, keys: int, parity: int = 0) -> None:
        self.rounds += 1
        self.packets_sent += packets
        self.keys_sent += keys
        self.parity_packets += parity
        self.per_round_packets.append(packets)


class TransportExhausted(RuntimeError):
    """A transport hit its hard round cap with receivers still unsatisfied.

    Raised instead of looping forever when the loss process never lets the
    remaining receivers complete (e.g. loss rate approaching 1.0).  Carries
    the partial :class:`TransportResult` accumulated so far and the ids of
    the receivers still ``pending``, so the caller can degrade gracefully —
    typically by marking them ``OUT_OF_SYNC`` and falling back to unicast
    recovery (see :mod:`repro.faults.recovery`).
    """

    def __init__(self, message: str, result: TransportResult, pending: Set[str]):
        super().__init__(message)
        self.result = result
        self.pending = frozenset(pending)


class RoundState:
    """One delivery as its protocol sees it: the hooks :func:`run_rounds` drives.

    A protocol answers three questions — which packets with which
    audiences go out in round *r* (:meth:`packets`), what a delivery does
    to its own sets (:meth:`deliver`), and whom the round satisfied once
    its last packet is out (:meth:`settle`).  Everything else is the
    engine's.  Receivers are settled once per round, not once per packet:
    the engine stamps a round's settled receivers with the round's
    elapsed time, which no packet of the round moves.
    """

    #: Receivers not yet satisfied: a set the state keeps live (only
    #: :meth:`settle` and :meth:`drop` shrink it).  The engine only reads
    #: it (size, truth, iteration).
    pending: Set[str]
    #: Key units a parity packet is priced at in ``keys_sent``.
    parity_keys = 0
    #: Whether round 0 goes on the wire with nobody pending: a protocol
    #: whose first round is the whole payload sends (and prices) it
    #: regardless; one that packs its rounds from interest has nothing to
    #: send and no round to count.
    sends_idle_first_round = False

    def addressed(self) -> Iterable[str]:
        """Receivers some packet may still be addressed to; the engine
        drops those that left the channel before every round."""
        return self.pending

    def drop(self, receiver_id: str) -> None:
        """Forget a receiver that departed mid-delivery."""
        raise NotImplementedError

    def packets(
        self, round_index: int
    ) -> Iterator[Tuple[KeyPacket, Optional[Collection[str]]]]:
        """The round's ``(packet, audience)`` pairs, in sending order.

        Consumed lazily — each multicast is :meth:`deliver`-ed before the
        next pair is asked for — so an audience may depend on what earlier
        packets of the round achieved.  An audience of ``None`` prices the
        packet without a multicast: nobody is left to draw for.
        """
        raise NotImplementedError

    def deliver(self, packet: KeyPacket, receivers: Set[str]) -> None:
        """Apply one multicast's deliveries to the protocol's own sets;
        ``pending`` stays as it is until :meth:`settle`."""
        raise NotImplementedError

    def settle(self) -> Set[str]:
        """The receivers this round satisfied, each returned once, in the
        round that met its interest: they leave ``pending``."""
        raise NotImplementedError

    def keys_pending(self) -> int:
        """Outstanding work, in the protocol's own unit (``retry_round``)."""
        raise NotImplementedError


class KeyInterestState(RoundState):
    """Pending state as one ``key index -> receivers still needing it`` map.

    Shared by the transports that resend keys themselves (WKA-BKR,
    multi-send): a packet's audience is whoever still needs one of its
    keys.  The map starts as a copy of the task's audiences and is kept in
    step by :meth:`deliver` and :meth:`drop`; a key leaves it when its
    audience empties.  A pending receiver is satisfied once no open
    audience holds it.  Subclasses say which packets a round sends
    (:meth:`plan`).
    """

    def __init__(self, task: TransportTask) -> None:
        self.audiences: Dict[int, Set[str]] = {
            index: set(audience) for index, audience in task.audiences.items()
        }
        self.pending: Set[str] = set().union(*self.audiences.values())

    def drop(self, receiver_id):
        self.pending.remove(receiver_id)
        audiences = self.audiences
        for index, audience in list(audiences.items()):
            audience.discard(receiver_id)
            if not audience:
                del audiences[index]

    def plan(
        self, round_index: int, audiences: Dict[int, Set[str]]
    ) -> List[KeyPacket]:
        """The packets of this round, given who still needs which key."""
        raise NotImplementedError

    def packets(self, round_index):
        # Kept in step by ``deliver``, so a packet's audience is the union
        # over its keys of who *still* needs each one — a receiver that
        # already got a replicated key from an earlier packet of this
        # round is not drawn for again.
        audiences = self.audiences
        for packet in self.plan(round_index, audiences):
            audience = set().union(
                *[audiences.get(index, ()) for index in packet.key_indices]
            )
            yield packet, audience or None

    def deliver(self, packet, receivers):
        audiences = self.audiences
        # A key a packet carries twice finds its second audience without
        # the receivers the first copy reached.
        for index in packet.key_indices:
            audience = audiences.get(index)
            if audience is not None:
                audience -= audience & receivers
                if not audience:
                    del audiences[index]

    def settle(self):
        pending = self.pending
        settled = pending.difference(*self.audiences.values())
        pending -= settled
        return settled

    def keys_pending(self):
        return sum(map(len, self.audiences.values()))


def run_rounds(
    name: str,
    state: RoundState,
    channel: MulticastChannel,
    retry: Optional[RetryPolicy] = None,
    max_rounds: int = 50,
) -> TransportResult:
    """Drive one delivery to completion: the one NACK-round loop.

    ``retry.max_rounds`` (else ``max_rounds``) caps the rounds; the
    policy's backoff accumulates into ``TransportResult.elapsed`` and its
    abandonment threshold moves everyone still pending into
    ``TransportResult.abandoned``.  Hitting the cap with receivers still
    pending raises :class:`TransportExhausted`.
    """
    result = TransportResult()
    pending = state.pending
    round_cap = retry.max_rounds if retry is not None else max_rounds
    for round_index in range(round_cap):
        # A receiver that left the channel mid-delivery (departed the
        # group) stops being anyone's problem.
        for rid in channel.unsubscribed(state.addressed()):
            state.drop(rid)
        if not pending and (round_index > 0 or not state.sends_idle_first_round):
            break
        if retry is not None:
            result.elapsed += retry.delay_before_round(round_index)
        if round_index > 0:
            result.late.update(pending)
        packets = keys = parity = 0
        with obs_tracing.span(
            "transport.round", protocol=name, round=round_index
        ) as round_span:
            for packet, audience in state.packets(round_index):
                packets += 1
                if packet.is_parity:
                    parity += 1
                    keys += state.parity_keys
                else:
                    keys += packet.key_count
                if audience is None:
                    continue
                report = channel.multicast(packet, audience=audience)
                state.deliver(packet, report.delivered_to)
            # A receiver's new DEK is usable from the round that met its
            # whole interest; no packet of a round moves ``elapsed``.
            settled = state.settle()
            if settled:
                result.completed.update(dict.fromkeys(settled, result.elapsed))
            round_span.set("packets", packets)
            if parity:
                round_span.set("parity", parity)
            round_span.set("pending_after", len(pending))
        result.merge_round(packets=packets, keys=keys, parity=parity)
        obs_metrics.inc("transport.rounds")
        if round_index > 0:
            obs_metrics.inc("transport.retry_rounds")
            obs_events.emit(
                "retry_round",
                round=round_index,
                packets=packets,
                keys_pending=state.keys_pending(),
            )
        if retry is not None and retry.should_abandon(round_index + 1):
            # Everyone still pending has now been unsatisfied for
            # abandon_after rounds (interest is fixed at task start), so
            # nobody is left for another round: the unicast catch-up path
            # owns them from here.
            result.abandoned.update(pending)
            break
        if not pending:
            break
    else:
        raise TransportExhausted(
            f"{name} exhausted {round_cap} rounds with "
            f"{len(pending)} receivers unsatisfied",
            result,
            set(pending),
        )
    result.satisfied = True
    return result

