"""WKA-BKR: weighted key assignment + batched key retransmission [SZJ02].

*Weighted key assignment* (WKA): before the first round, every key gets a
weight — the expected number of transmissions needed to reach all of its
interested receivers given their loss rates (Appendix B's ``E[M]``).  Keys
are replicated ``ceil(weight)`` times, copies spread across distinct
packets, and packed in breadth-first (widest audience first) or
depth-first (subtree-adjacent) order.

*Batched key retransmission* (BKR): after each round the server collects
NACKs and builds **fresh** packets containing only the keys still needed
(re-weighted for the shrunken audiences), instead of retransmitting old
packets wholesale — exploiting the payload's sparseness.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Set

from repro.analysis.wka import expected_transmissions
from repro.faults.retry import RetryPolicy
from repro.network.channel import MulticastChannel
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.transport.packets import (
    KeyPacket,
    order_breadth_first,
    order_depth_first,
    pack_indices,
)
from repro.transport.session import (
    TransportExhausted,
    TransportResult,
    TransportTask,
    audiences_of,
)


class WkaBkrProtocol:
    """The paper's reference rekey transport.

    Parameters
    ----------
    keys_per_packet:
        Packet capacity in encrypted keys.
    packing:
        ``"bfs"`` (default, widest audience first) or ``"dfs"``
        (message order, subtree-adjacent).
    max_rounds:
        Hard safety cap on BKR rounds: a pathological loss process (rate
        approaching 1.0) raises
        :class:`~repro.transport.session.TransportExhausted` instead of
        looping forever.
    retry:
        Optional :class:`~repro.faults.retry.RetryPolicy`.  Its
        ``max_rounds`` overrides the constructor cap, its backoff schedule
        is accumulated into ``TransportResult.elapsed``, and receivers
        unsatisfied past ``abandon_after`` rounds are dropped into
        ``TransportResult.abandoned`` instead of exhausting the transport.
    """

    name = "wka-bkr"

    #: WKA weighting clamps per-receiver loss rates here: the analytic
    #: E[M] model diverges as the rate approaches 1, and replicating a key
    #: more than ~10x in one round is wasted wire — past this point the
    #: reactive BKR rounds, the hard round cap and the retry policy's
    #: abandonment own the tail (a rate of exactly 1.0 can otherwise only
    #: end in TransportExhausted).
    MAX_WEIGHT_RATE = 0.9

    def __init__(
        self,
        keys_per_packet: int = 25,
        packing: str = "bfs",
        max_rounds: int = 50,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if packing not in ("bfs", "dfs"):
            raise ValueError("packing must be 'bfs' or 'dfs'")
        if max_rounds < 1:
            raise ValueError("max_rounds must be positive")
        self.keys_per_packet = keys_per_packet
        self.packing = packing
        self.max_rounds = max_rounds
        self.retry = retry

    # ------------------------------------------------------------------

    def _weight(self, audience: Set[str], channel: MulticastChannel) -> int:
        """WKA weight: the expected transmissions for this key, rounded.

        Nearest-integer replication tracks the [SZJ02] expected-bandwidth
        model closely (validated in
        :mod:`repro.experiments.validation`); rounding up instead
        over-replicates by ~25% since BKR's reactive rounds already mop up
        the residual misses near-optimally.
        """
        if not audience:
            return 0
        rates = Counter(
            min(channel.loss_of(rid).mean_loss, self.MAX_WEIGHT_RATE)
            for rid in audience
        )
        total = sum(rates.values())
        mixture = [(rate, count / total) for rate, count in rates.items()]
        expected = expected_transmissions(float(total), mixture)
        return max(1, round(expected))

    def _build_round_packets(
        self,
        audiences: Dict[int, Set[str]],
        channel: MulticastChannel,
        start_seqno: int,
    ) -> List[KeyPacket]:
        """Weight, replicate, order and pack the still-needed keys.

        ``audiences`` is the round's ``key index -> receivers still
        needing it`` map (:func:`~repro.transport.session.audiences_of`).
        """
        if not audiences:
            return []
        weights = {
            index: self._weight(audience, channel)
            for index, audience in audiences.items()
        }
        if self.packing == "bfs":
            ordered = order_breadth_first(list(audiences), audiences)
        else:
            ordered = order_depth_first(sorted(audiences))
        # Spread replicas across packets: emit every key's first copy, then
        # every second copy, and so on — adjacent copies in one packet
        # would die together.
        max_weight = max(weights.values())
        sequence: List[int] = []
        for replica in range(max_weight):
            sequence.extend(i for i in ordered if weights[i] > replica)
        return pack_indices(sequence, self.keys_per_packet, start_seqno=start_seqno)

    # ------------------------------------------------------------------

    def run(self, task: TransportTask, channel: MulticastChannel) -> TransportResult:
        """Deliver ``task`` over ``channel``; returns the cost accounting.

        Raises
        ------
        repro.transport.session.TransportExhausted
            When the round cap is hit with receivers still unsatisfied and
            no retry policy licenses abandoning them.
        """
        result = TransportResult()
        outstanding: Dict[str, Set[int]] = {
            rid: set(wanted) for rid, wanted in task.interest.items() if wanted
        }
        round_cap = self.retry.max_rounds if self.retry is not None else self.max_rounds
        seqno = 0
        for round_index in range(round_cap):
            # A receiver that left the channel mid-delivery (departed the
            # group) stops being anyone's problem.
            outstanding = {
                rid: wanted for rid, wanted in outstanding.items() if rid in channel
            }
            if not outstanding:
                break
            if self.retry is not None:
                result.elapsed += self.retry.delay_before_round(round_index)
            if round_index > 0:
                result.late.update(outstanding)
            with obs_tracing.span(
                "transport.round", protocol="wka-bkr", round=round_index
            ) as round_span:
                # Built once per round and kept in step with
                # ``outstanding`` below, so a packet's audience is the
                # union over its keys of who *still* needs each one — a
                # receiver that already got a replicated key from an
                # earlier packet of this round is not drawn for again.
                audiences = audiences_of(outstanding)
                packets = self._build_round_packets(audiences, channel, seqno)
                seqno += len(packets)
                keys_this_round = 0
                for packet in packets:
                    keys_this_round += packet.key_count
                    carried = set(packet.key_indices)
                    audience = set().union(*[audiences[i] for i in carried])
                    if not audience:
                        continue
                    report = channel.multicast(packet, audience=audience)
                    for rid in report.delivered_to:
                        wanted = outstanding[rid]
                        for index in wanted & carried:
                            audiences[index].discard(rid)
                            wanted.discard(index)
                        if not wanted:
                            del outstanding[rid]
                            result.completed[rid] = result.elapsed
                round_span.set("packets", len(packets))
                round_span.set("pending_after", len(outstanding))
            result.merge_round(packets=len(packets), keys=keys_this_round)
            obs_metrics.inc("transport.rounds")
            if round_index > 0:
                obs_metrics.inc("transport.retry_rounds")
                obs_events.emit(
                    "retry_round",
                    round=round_index,
                    packets=len(packets),
                    keys_pending=sum(len(w) for w in outstanding.values()),
                )
            if self.retry is not None and self.retry.should_abandon(round_index + 1):
                # Everyone still outstanding has now been unsatisfied for
                # abandon_after rounds (interest is fixed at task start).
                result.abandoned.update(outstanding)
                outstanding.clear()
        if outstanding:
            result.satisfied = False
            raise TransportExhausted(
                f"wka-bkr exhausted {round_cap} rounds with "
                f"{len(outstanding)} receivers unsatisfied",
                result,
                set(outstanding),
            )
        result.satisfied = True
        return result
