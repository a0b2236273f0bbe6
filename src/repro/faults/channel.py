"""A fault-injecting multicast channel.

:class:`FaultyChannel` is a drop-in
:class:`~repro.network.channel.MulticastChannel`: the transports, the
simulator and the conformance harness use it unchanged.  Every multicast
first resolves which windows of the attached
:class:`~repro.faults.schedule.FaultSchedule` are open at the current
simulation time (supplied by ``clock``, usually the event loop's ``now``);
each delivery draw then only asks the open ones whether they cover its
receiver:

* an active :class:`~repro.faults.schedule.Blackout` covering the receiver
  forces a loss;
* an active :class:`~repro.faults.schedule.LossBurst` replaces the
  receiver's steady-state loss process with a per-(receiver, burst)
  Gilbert–Elliott chain drawn from its own dedicated RNG stream — the
  steady-state process still advances (draw-and-discard) during the
  window, so it resumes exactly where an un-faulted run would be;
* :class:`~repro.faults.schedule.DuplicateDelivery` windows re-deliver
  successful receptions with some probability (receivers must be
  idempotent);
* :class:`~repro.faults.schedule.DeliveryJitter` windows shuffle the
  per-packet receiver processing order.

Outside every window the channel behaves exactly like its parent —
fault injection never perturbs steady-state draws.
"""

from __future__ import annotations

import random
from typing import Callable, Collection, Dict, List, Optional, Tuple, TypeVar

from repro.network.channel import DeliveryReport, MulticastChannel
from repro.network.loss import GilbertElliottLoss
from repro.faults.schedule import Blackout, FaultSchedule, LossBurst

PacketT = TypeVar("PacketT")


class FaultyChannel(MulticastChannel[PacketT]):
    """A lossy multicast channel with a fault schedule wired in.

    Parameters
    ----------
    schedule:
        The fault windows to apply.
    clock:
        Zero-argument callable returning the current simulation time
        (default: a frozen clock at 0.0, useful in unit tests).
    seed:
        Same role as in :class:`MulticastChannel`.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        clock: Optional[Callable[[], float]] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(seed=seed)
        self.schedule = schedule
        self.clock = clock if clock is not None else (lambda: 0.0)
        self._fault_rng = random.Random(f"{seed}/fault-channel")
        #: per-(receiver, burst) override chains with their own RNGs, so
        #: burstiness has memory without touching the steady-state stream
        self._burst_chains: Dict[
            Tuple[str, int], Tuple[GilbertElliottLoss, random.Random]
        ] = {}
        # observability counters
        self.blackout_losses = 0
        self.burst_losses = 0
        self.duplicates_delivered = 0
        self.jittered_packets = 0

    # ------------------------------------------------------------------

    def unsubscribe(self, receiver_id: str) -> None:
        """Also forget the receiver's burst chains: like its steady-state
        stream, a re-subscribed id restarts them from the top."""
        super().unsubscribe(receiver_id)
        for index in range(len(self.schedule.bursts)):
            self._burst_chains.pop((receiver_id, index), None)

    def _burst_chain(
        self, receiver_id: str, index: int, burst: LossBurst
    ) -> Tuple[GilbertElliottLoss, random.Random]:
        key = (receiver_id, index)
        entry = self._burst_chains.get(key)
        if entry is None:
            chain = GilbertElliottLoss(
                p_good_to_bad=burst.p_good_to_bad,
                p_bad_to_good=burst.p_bad_to_good,
                good_loss=burst.good_loss,
                bad_loss=burst.bad_loss,
            )
            entry = (chain, random.Random(f"{self.seed}/{receiver_id}/burst{index}"))
            self._burst_chains[key] = entry
        return entry

    def multicast(
        self, packet: PacketT, audience: Optional[Collection[str]] = None
    ) -> DeliveryReport[PacketT]:
        # Simulated time cannot advance inside one multicast, so which
        # windows are open is settled here, once, for every receiver.
        now = self.clock()
        schedule = self.schedule
        if schedule.jitter_active(now) and audience is not None and len(audience) > 1:
            # Re-materialize the audience in a shuffled order; outcomes are
            # unchanged (per-receiver streams), dependence on iteration
            # order would surface as non-determinism in seeded runs.
            shuffled = sorted(audience)
            self._fault_rng.shuffle(shuffled)
            audience = dict.fromkeys(shuffled).keys()  # ordered set view
            self.jittered_packets += 1
        # The draw loop is the parent's, windows or not: a covered
        # receiver's own process still *advances* (its draw is taken, then
        # overridden) — so when the window closes the steady-state draws
        # resume exactly where an un-faulted run would be, whatever kind
        # of loss process is subscribed.
        report = self._draw(packet, audience)
        blackouts = schedule.open_blackouts(now)
        bursts = schedule.open_bursts(now)
        if blackouts or bursts:
            self._override_outcomes(report, blackouts, bursts)
        self._count(report)
        duplicate_probability = schedule.duplicate_probability(now)
        if duplicate_probability > 0.0:
            for __ in report.delivered_to:
                if self._fault_rng.random() < duplicate_probability:
                    # The network hands the receiver a second copy; the
                    # receiver stack must be idempotent (Member.absorb is).
                    self.receptions += 1
                    self.duplicates_delivered += 1
        return report

    def _override_outcomes(
        self,
        report: DeliveryReport[PacketT],
        blackouts: List[Blackout],
        bursts: List[Tuple[int, LossBurst]],
    ) -> None:
        """Replace the steady-state outcome of every receiver a loss window
        covers: a blackout loses the packet, else the first covering burst
        draws from the receiver's chain for it."""
        delivered, lost = report.delivered_to, report.lost_at
        for receiver_id in delivered | lost:
            if any(blackout.covers(receiver_id) for blackout in blackouts):
                self.blackout_losses += 1
                is_lost = True
            else:
                for index, burst in bursts:
                    if burst.covers(receiver_id):
                        chain, chain_rng = self._burst_chain(receiver_id, index, burst)
                        is_lost = chain.lost(chain_rng)
                        if is_lost:
                            self.burst_losses += 1
                        break
                else:
                    continue
            if is_lost:
                delivered.discard(receiver_id)
                lost.add(receiver_id)
            else:
                lost.discard(receiver_id)
                delivered.add(receiver_id)
