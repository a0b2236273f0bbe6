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

from functools import lru_cache
from itertools import repeat
from typing import Collection, Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.wka import expected_transmissions
from repro.faults.retry import RetryPolicy
from repro.network.channel import MulticastChannel
from repro.transport.packets import (
    KeyPacket,
    order_breadth_first,
    order_depth_first,
    pack_indices,
)
from repro.transport.session import (
    KeyInterestState,
    TransportResult,
    TransportTask,
    run_rounds,
)


@lru_cache(maxsize=4096)
def _profile_weight(profile: Tuple[Tuple[float, int], ...]) -> int:
    """``round(E[M])``, at least 1, for an audience given as its sorted
    ``(rate, receivers)`` profile."""
    total = sum(count for __, count in profile)
    mixture = [(rate, count / total) for rate, count in profile]
    return max(1, round(expected_transmissions(float(total), mixture)))


class _LossClasses:
    """One delivery's receivers as loss-class codes, for WKA weighing.

    The receiver weighed at the ``i``-th lowest (clamped) rate has code
    ``1 << (bits * i)``, with ``bits`` wide enough to count every
    receiver, so the sum of an audience's codes holds, field by field, how
    many of it sit in each class: its rate profile, in one C-level pass.
    Each distinct sum is decoded once into the sorted ``(rate, count)``
    profile and weighed.

    Nearest-integer replication tracks the [SZJ02] expected-bandwidth
    model closely (validated in :mod:`repro.experiments.validation`);
    rounding up instead over-replicates by ~25% since BKR's reactive
    rounds already mop up the residual misses near-optimally.

    The eq. 14 sum walks the profile in ascending rate order.  A rate-0
    class adds nothing after the first term, so with at most two distinct
    non-zero rates each term adds at most two non-zero logs, and IEEE
    addition is commutative: the weight is bit for bit what any other
    mixture order gives.  With three or more non-zero rates ``E[M]`` can
    differ from another order's in its last bit, which moves the weight
    only if ``E[M]`` lies within an ulp of ``k + 0.5``.
    """

    __slots__ = ("rates", "bits", "code", "weights")

    def __init__(self, rates: Dict[str, float]) -> None:
        #: the distinct rates, ascending: class ``i`` is ``rates[i]``
        self.rates = sorted(set(rates.values()))
        self.bits = len(rates).bit_length()
        code_of = {rate: 1 << (self.bits * i) for i, rate in enumerate(self.rates)}
        self.code = dict(zip(rates, map(code_of.__getitem__, rates.values())))
        #: code sum -> weight, memoized per delivery
        self.weights: Dict[int, int] = {0: 0}

    def profile(self, codes: int) -> Tuple[Tuple[float, int], ...]:
        """The sorted ``(rate, receivers)`` profile a code sum holds."""
        bits = self.bits
        mask = (1 << bits) - 1
        profile = []
        for rate in self.rates:
            count = codes & mask
            if count:
                profile.append((rate, count))
            codes >>= bits
        return tuple(profile)

    def weight(self, audience: Collection[str]) -> int:
        """WKA weight: the expected transmissions for a key wanted by
        ``audience``, rounded (0 for nobody)."""
        codes = sum(map(self.code.__getitem__, audience))
        weight = self.weights.get(codes)
        if weight is None:
            weight = self.weights[codes] = _profile_weight(self.profile(codes))
        return weight


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

    def _weight_rates(
        self, receivers: Iterable[str], channel: MulticastChannel
    ) -> Dict[str, float]:
        """``receiver -> loss rate`` as WKA weighs it (clamped), for the
        subscribed receivers among ``receivers``."""
        rates = channel.loss_rates(receivers)
        return dict(
            zip(rates, map(min, rates.values(), repeat(self.MAX_WEIGHT_RATE)))
        )

    def _build_round_packets(
        self,
        audiences: Dict[int, Set[str]],
        channel: MulticastChannel,
        start_seqno: int,
        classes: Optional[_LossClasses] = None,
    ) -> List[KeyPacket]:
        """Weight, replicate, order and pack the still-needed keys.

        ``audiences`` is the delivery's ``key index -> receivers still
        needing it`` map
        (:class:`~repro.transport.session.KeyInterestState`); ``classes``
        the run's receivers over their :meth:`_weight_rates`, built once
        instead of asking the channel every round.
        """
        if not audiences:
            return []
        if classes is None:
            receivers = set().union(*audiences.values())
            classes = _LossClasses(self._weight_rates(receivers, channel))
        weights = dict(zip(audiences, map(classes.weight, audiences.values())))
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
        state = _WkaBkrState(self, task, channel)
        return run_rounds(self.name, state, channel, self.retry, self.max_rounds)


class _WkaBkrState(KeyInterestState):
    """BKR: every round packs fresh packets of only the keys still needed,
    re-weighted for the shrunken audiences."""

    def __init__(
        self, protocol: WkaBkrProtocol, task: TransportTask, channel: MulticastChannel
    ) -> None:
        super().__init__(task)
        self.protocol = protocol
        self.channel = channel
        self.seqno = 0
        # A receiver already gone from the channel has no class: it is
        # dropped before the first round weighs anything.
        self.classes = _LossClasses(protocol._weight_rates(self.pending, channel))

    def plan(self, round_index, audiences):
        packets = self.protocol._build_round_packets(
            audiences, self.channel, self.seqno, self.classes
        )
        self.seqno += len(packets)
        return packets
