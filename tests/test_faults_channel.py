"""FaultyChannel: schedule windows applied to delivery draws."""

import pytest

from repro.faults.channel import FaultyChannel
from repro.faults.retry import RetryPolicy
from repro.faults.schedule import (
    Blackout,
    DeliveryJitter,
    DuplicateDelivery,
    FaultSchedule,
    LossBurst,
)
from repro.network.channel import DeliveryReport, MulticastChannel
from repro.network.loss import BernoulliLoss
from repro.transport.fec import ProactiveFecProtocol
from repro.transport.wka_bkr import WkaBkrProtocol

# As a module: importing its test classes by name would collect them here too.
import tests.test_transport_protocols as transport_tests
from tests.helpers import interest_of


class _Clock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


def test_blackout_forces_total_loss():
    clock = _Clock()
    schedule = FaultSchedule.of(
        [Blackout(start=10.0, duration=10.0, receivers=frozenset({"dark"}))]
    )
    channel = FaultyChannel(schedule, clock=clock, seed=1)
    channel.subscribe("dark", BernoulliLoss(0.0))
    channel.subscribe("lit", BernoulliLoss(0.0))

    clock.now = 5.0  # before the window
    assert channel.multicast("p").delivered_to == {"dark", "lit"}
    clock.now = 15.0  # inside
    for __ in range(20):
        report = channel.multicast("p")
        assert "dark" in report.lost_at
        assert "lit" in report.delivered_to
    clock.now = 25.0  # after
    assert channel.multicast("p").delivered_to == {"dark", "lit"}
    assert channel.blackout_losses == 20


def test_burst_overrides_loss_and_resumes_unshifted():
    """During a burst the GE override draws; afterwards the steady-state
    process continues exactly where an un-faulted run would be."""
    def outcomes(schedule, packets, clock_times):
        clock = _Clock()
        channel = FaultyChannel(schedule, clock=clock, seed=9)
        channel.subscribe("r", BernoulliLoss(0.3))
        seen = []
        for i in range(packets):
            clock.now = clock_times[i]
            seen.append("r" in channel.multicast(i).delivered_to)
        return seen

    quiet = FaultSchedule()
    bursty = FaultSchedule.of(
        [LossBurst(start=10.0, duration=10.0, bad_loss=1.0, good_loss=1.0,
                   p_good_to_bad=0.5, p_bad_to_good=0.1)]
    )
    times = [float(i) for i in range(30)]
    base = outcomes(quiet, 30, times)
    faulted = outcomes(bursty, 30, times)
    # Inside the window (t in [10, 20)) everything is lost (loss 1 in both
    # states); outside it the draws match the un-faulted run exactly.
    assert faulted[:10] == base[:10]
    assert faulted[10:20] == [False] * 10
    assert faulted[20:] == base[20:]


def test_burst_chains_are_per_receiver():
    schedule = FaultSchedule.of(
        [LossBurst(start=0.0, duration=100.0, p_good_to_bad=0.3,
                   p_bad_to_good=0.3, good_loss=0.0, bad_loss=1.0)]
    )
    channel = FaultyChannel(schedule, seed=4)
    channel.subscribe("a", BernoulliLoss(0.0))
    channel.subscribe("b", BernoulliLoss(0.0))
    a_hits, b_hits = [], []
    for i in range(200):
        report = channel.multicast(i)
        a_hits.append("a" in report.delivered_to)
        b_hits.append("b" in report.delivered_to)
    # Independent chains: the two receivers' burst patterns differ.
    assert a_hits != b_hits
    assert channel.burst_losses > 0


def test_unsubscribe_forgets_burst_chains():
    """A departed receiver leaves no chain (and no 2.5 KB generator)
    behind, and a re-subscribed id restarts its chains from the top, as
    its steady-state stream does."""
    schedule = FaultSchedule.of(
        [
            LossBurst(start=0.0, duration=100.0, p_good_to_bad=0.3,
                      p_bad_to_good=0.3, good_loss=0.0, bad_loss=1.0),
            LossBurst(start=50.0, duration=100.0, bad_loss=0.9),
        ]
    )

    def session(channel, clock, packets=60):
        channel.subscribe("a", BernoulliLoss(0.1))
        seen = []
        for i in range(packets):
            clock.now = float(2 * i)  # crosses from the first burst into the second
            seen.append("a" in channel.multicast(i).delivered_to)
        return seen

    clock = _Clock()
    channel = FaultyChannel(schedule, clock=clock, seed=4)
    channel.subscribe("stays", BernoulliLoss(0.1))
    first = session(channel, clock)
    assert {rid for rid, __ in channel._burst_chains} == {"a", "stays"}
    channel.unsubscribe("a")
    assert {rid for rid, __ in channel._burst_chains} == {"stays"}
    assert session(channel, clock) == first
    assert not all(first) and any(first)


def test_duplicates_counted_and_probability_zero_outside_window():
    clock = _Clock(now=5.0)
    schedule = FaultSchedule.of(
        [DuplicateDelivery(start=0.0, duration=10.0, probability=1.0)]
    )
    channel = FaultyChannel(schedule, clock=clock, seed=2)
    channel.subscribe("r", BernoulliLoss(0.0))
    channel.multicast("p")
    assert channel.duplicates_delivered == 1
    assert channel.receptions == 2  # original + duplicate
    clock.now = 50.0
    channel.multicast("p")
    assert channel.duplicates_delivered == 1


def test_jitter_shuffles_order_but_not_outcomes():
    """Per-receiver streams make draw outcomes independent of processing
    order, so a jittered channel reports identical outcomes."""
    ids = [f"r{i}" for i in range(12)]

    def run(schedule):
        clock = _Clock(now=5.0)
        channel = FaultyChannel(schedule, clock=clock, seed=6)
        for rid in ids:
            channel.subscribe(rid, BernoulliLoss(0.4))
        reports = []
        for i in range(40):
            reports.append(
                frozenset(channel.multicast(i, audience=set(ids)).delivered_to)
            )
        return reports, channel

    plain_reports, __ = run(FaultSchedule())
    jitter_reports, jitter_channel = run(
        FaultSchedule.of([DeliveryJitter(start=0.0, duration=100.0)])
    )
    assert jitter_channel.jittered_packets == 40
    assert jitter_reports == plain_reports


def test_no_windows_behaves_like_parent():
    plain = MulticastChannel(seed=8)
    faulty = FaultyChannel(FaultSchedule(), seed=8)
    for channel in (plain, faulty):
        channel.subscribe("x", BernoulliLoss(0.5))
    plain_seen = [bool(plain.multicast(i).delivered_to) for i in range(100)]
    faulty_seen = [bool(faulty.multicast(i).delivered_to) for i in range(100)]
    assert plain_seen == faulty_seen


class PerDrawFaultyChannel(FaultyChannel):
    """Oracle: the channel as it was before windows were resolved per
    multicast.

    Every delivery draw reads the clock and asks the schedule, window by
    window, whether this receiver is blacked out or in a burst — through
    the parent's old loop of one ``_draw_lost`` call per receiver.  Slow,
    but obviously right; the production channel must take the same draws
    from the same streams.  Streams are reached through ``stream_of``
    only, so the oracle does not depend on when the channel builds them.
    """

    def _stream(self, receiver_id):
        return self.stream_of(receiver_id) if receiver_id in self else None

    def _draw_lost(self, receiver_id, loss):
        now = self.clock()
        if self.schedule.blacked_out(receiver_id, now):
            stream = self._stream(receiver_id)
            if stream is not None:
                loss.lost(stream)  # advance, discard
            self.blackout_losses += 1
            return True
        burst = self.schedule.burst_for(receiver_id, now)
        if burst is not None:
            stream = self._stream(receiver_id)
            if stream is None:  # vanished mid-round
                return True
            loss.lost(stream)  # advance, discard
            index = self.schedule.bursts.index(burst)
            chain, chain_rng = self._burst_chain(receiver_id, index, burst)
            lost = chain.lost(chain_rng)
            if lost:
                self.burst_losses += 1
            return lost
        stream = self._stream(receiver_id)
        if stream is None:  # receiver vanished mid-round; count as lost
            return True
        return loss.lost(stream)

    def _parent_multicast(self, packet, audience):
        self.packets_sent += 1
        report = DeliveryReport(packet=packet)
        targets = (
            list(self._receivers.items())
            if audience is None
            else [
                (rid, self._receivers[rid])
                for rid in audience
                if rid in self._receivers
            ]
        )
        for receiver_id, loss in targets:
            if receiver_id not in self._receivers:
                continue
            if self._draw_lost(receiver_id, loss):
                report.lost_at.add(receiver_id)
                self.losses += 1
            else:
                report.delivered_to.add(receiver_id)
                self.receptions += 1
        return report

    def multicast(self, packet, audience=None):
        now = self.clock()
        if self.schedule.jitter_active(now) and audience is not None and len(audience) > 1:
            shuffled = sorted(audience)
            self._fault_rng.shuffle(shuffled)
            audience = dict.fromkeys(shuffled).keys()
            self.jittered_packets += 1
        report = self._parent_multicast(packet, audience)
        duplicate_probability = self.schedule.duplicate_probability(now)
        if duplicate_probability > 0.0:
            for __ in report.delivered_to:
                if self._fault_rng.random() < duplicate_probability:
                    self.receptions += 1
                    self.duplicates_delivered += 1
        return report


class LoggedOracleChannel(transport_tests.PacketLog, PerDrawFaultyChannel):
    pass


class LoggedFaultyChannel(transport_tests.PacketLog, FaultyChannel):
    pass


class TestPerMulticastWindowEquivalence:
    """Windows resolved once per multicast against the per-draw oracle:
    a randomized schedule with every window kind, on a clock that moves
    between multicasts, under real transports."""

    HORIZON = 1000.0
    FAULT_COUNTERS = (
        "blackout_losses", "burst_losses", "duplicates_delivered", "jittered_packets",
    )

    def deliver(self, channel_cls, seed, transport):
        battery = transport_tests.TestWkaBkrAudienceIndexEquivalence()
        drawn = FaultSchedule.randomized(seed, self.HORIZON)
        # One more burst across all four deliveries, so bursts overlap and
        # which one covers a receiver first matters.
        wide = LossBurst(start=100.0, duration=600.0, bad_loss=0.6, fraction=0.5)
        schedule = FaultSchedule.of(
            [*drawn.bursts, wide, *drawn.blackouts, *drawn.duplicates, *drawn.jitters]
        )
        clock = _Clock()
        channel = channel_cls(schedule, clock=clock, seed=seed)
        outcomes = []
        # Four deliveries spread over the horizon; inside each, every
        # multicast lands a little later than the one before, so windows
        # open and close in the middle of rounds.
        for delivery, start in enumerate((150.0, 300.0, 450.0, 600.0)):
            task, rates = battery.lossy_task(seed + delivery)
            for rid in channel.subscribers():
                channel.unsubscribe(rid)
            for rid, rate in rates.items():
                channel.subscribe(rid, BernoulliLoss(rate))
            interest = interest_of(task.audiences)
            leaver = max(interest, key=lambda r: (len(interest[r]), r))
            channel.start_log(unsubscribe_at={3: [leaver]})
            clock.now = start
            real_multicast = channel.multicast

            def ticking(packet, audience=None):
                clock.now += 1.5
                return real_multicast(packet, audience=audience)

            channel.multicast = ticking
            try:
                outcomes.append(
                    transport_tests.run_or_exhaust(transport, task, channel)
                    + (list(channel.log),)
                )
            finally:
                del channel.multicast
        return outcomes, channel

    @pytest.mark.parametrize(
        "transport",
        [
            WkaBkrProtocol(
                keys_per_packet=8, retry=RetryPolicy(max_rounds=8, abandon_after=4)
            ),
            ProactiveFecProtocol(
                keys_per_packet=4, block_size=3,
                retry=RetryPolicy(max_rounds=8, abandon_after=4),
            ),
        ],
        ids=lambda t: t.name,
    )
    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_same_draws_under_every_window_kind(self, seed, transport):
        expected, oracle = self.deliver(LoggedOracleChannel, seed, transport)
        actual, channel = self.deliver(LoggedFaultyChannel, seed, transport)
        for (*want, want_log), (*got, got_log) in zip(expected, actual):
            transport_tests.assert_same_result(want, got)
            assert got_log == want_log
        # Every window kind actually fired.
        assert channel.blackout_losses and channel.burst_losses
        assert channel.duplicates_delivered and channel.jittered_packets
        assert any(result.abandoned for result, __, __ in actual)
        # The same draws, not just the same totals: every receiver stream,
        # every burst chain and the fault RNG stopped at the same state.
        transport_tests.assert_same_draws(oracle, channel)
        for counter in self.FAULT_COUNTERS:
            assert getattr(channel, counter) == getattr(oracle, counter), counter
        assert channel._fault_rng.getstate() == oracle._fault_rng.getstate()
        assert channel._burst_chains.keys() == oracle._burst_chains.keys()
        for key, (chain, chain_rng) in channel._burst_chains.items():
            oracle_chain, oracle_rng = oracle._burst_chains[key]
            assert chain._bad == oracle_chain._bad, key
            assert chain_rng.getstate() == oracle_rng.getstate(), key


def test_window_queries_per_multicast_do_not_grow_with_audience():
    """Which windows are open is asked once per multicast (simulated time
    cannot advance inside one), whatever the audience; per receiver only
    ``covers`` of the open ones remains."""
    asked = {"active": 0, "covers": 0}

    class Counting:
        def active(self, now):
            asked["active"] += 1
            return super().active(now)

        def covers(self, receiver_id):
            asked["covers"] += 1
            return super().covers(receiver_id)

    class CountingBurst(Counting, LossBurst):
        pass

    class CountingBlackout(Counting, Blackout):
        pass

    class CountingDuplicates(Counting, DuplicateDelivery):
        pass

    class CountingJitter(Counting, DeliveryJitter):
        pass

    windows = [
        CountingBurst(start=0.0, duration=10.0, fraction=0.5),
        CountingBurst(start=20.0, duration=10.0),
        CountingBlackout(start=0.0, duration=10.0, fraction=0.1),
        CountingBlackout(start=20.0, duration=10.0, fraction=0.1),
        CountingDuplicates(start=0.0, duration=10.0, probability=0.2),
        CountingJitter(start=0.0, duration=10.0),
    ]
    clock = _Clock(now=5.0)

    def queries(audience_size):
        channel = FaultyChannel(FaultSchedule.of(windows), clock=clock, seed=3)
        ids = [f"r{i}" for i in range(audience_size)]
        for rid in ids:
            channel.subscribe(rid, BernoulliLoss(0.1))
        asked.update(active=0, covers=0)
        channel.multicast("p", audience=set(ids))
        return dict(asked)

    small, large = queries(10), queries(1000)
    assert small["active"] == large["active"] <= 2 * len(windows)
    # One open burst and one open blackout: at most two ``covers`` each.
    assert large["covers"] <= 2 * 1000
    clock.now = 50.0  # every window closed: the parent's loop, no window work
    assert queries(1000) == {"active": small["active"], "covers": 0}
