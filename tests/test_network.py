"""Unit tests for loss processes and the multicast channel."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.channel import DeliveryReport, MulticastChannel, PreparedAudience
from repro.network.loss import BernoulliLoss, GilbertElliottLoss


class TestBernoulliLoss:
    def test_validation(self):
        with pytest.raises(ValueError):
            BernoulliLoss(1.0)
        with pytest.raises(ValueError):
            BernoulliLoss(-0.1)

    def test_zero_loss_never_loses(self):
        rng = random.Random(1)
        loss = BernoulliLoss(0.0)
        assert not any(loss.lost(rng) for __ in range(1000))

    def test_rate_converges(self):
        rng = random.Random(2)
        loss = BernoulliLoss(0.2)
        observed = sum(loss.lost(rng) for __ in range(50_000)) / 50_000
        assert observed == pytest.approx(0.2, abs=0.01)
        assert loss.mean_loss == 0.2


class TestGilbertElliott:
    def test_validation(self):
        with pytest.raises(ValueError):
            GilbertElliottLoss(p_good_to_bad=1.5)
        with pytest.raises(ValueError):
            GilbertElliottLoss(p_bad_to_good=-0.1)
        with pytest.raises(ValueError):
            GilbertElliottLoss(bad_loss=1.5)
        with pytest.raises(ValueError):
            GilbertElliottLoss(good_loss=-0.5)

    def test_no_transitions_rejected(self):
        """Both transition probs zero: no stationary mean exists."""
        with pytest.raises(ValueError):
            GilbertElliottLoss(p_good_to_bad=0.0, p_bad_to_good=0.0)

    def test_absorbing_good_state(self):
        """p_good_to_bad=0: the chain never leaves good; mean is good_loss."""
        loss = GilbertElliottLoss(
            p_good_to_bad=0.0, p_bad_to_good=0.3, good_loss=0.0, bad_loss=0.9
        )
        assert loss.mean_loss == pytest.approx(0.0)
        rng = random.Random(11)
        assert not any(loss.lost(rng) for __ in range(5000))

    def test_absorbing_bad_state(self):
        """p_bad_to_good=0: once bad, always bad; mean is bad_loss."""
        loss = GilbertElliottLoss(
            p_good_to_bad=1.0, p_bad_to_good=0.0, good_loss=0.0, bad_loss=1.0
        )
        assert loss.mean_loss == pytest.approx(1.0)
        rng = random.Random(12)
        outcomes = [loss.lost(rng) for __ in range(100)]
        # First draw transitions into bad, so every packet is lost.
        assert all(outcomes)

    def test_degenerate_single_state_oscillation(self):
        """p=1 both ways: the chain alternates states every packet."""
        loss = GilbertElliottLoss(
            p_good_to_bad=1.0, p_bad_to_good=1.0, good_loss=0.0, bad_loss=1.0
        )
        assert loss.mean_loss == pytest.approx(0.5)
        rng = random.Random(13)
        outcomes = [loss.lost(rng) for __ in range(1000)]
        # Strict alternation: bad, good, bad, good, ...
        assert outcomes[0::2] == [True] * 500
        assert outcomes[1::2] == [False] * 500

    def test_stationary_mean(self):
        loss = GilbertElliottLoss(
            p_good_to_bad=0.1, p_bad_to_good=0.3, good_loss=0.0, bad_loss=0.4
        )
        assert loss.mean_loss == pytest.approx(0.1 / 0.4 * 0.4)

    def test_empirical_mean_matches_stationary(self):
        rng = random.Random(3)
        loss = GilbertElliottLoss(
            p_good_to_bad=0.05, p_bad_to_good=0.25, good_loss=0.01, bad_loss=0.5
        )
        observed = sum(loss.lost(rng) for __ in range(200_000)) / 200_000
        assert observed == pytest.approx(loss.mean_loss, abs=0.01)

    def test_burstiness(self):
        """Losses cluster: P[loss | previous loss] > P[loss]."""
        rng = random.Random(4)
        loss = GilbertElliottLoss(
            p_good_to_bad=0.02, p_bad_to_good=0.2, good_loss=0.0, bad_loss=0.6
        )
        outcomes = [loss.lost(rng) for __ in range(100_000)]
        after_loss = [b for a, b in zip(outcomes, outcomes[1:]) if a]
        conditional = sum(after_loss) / len(after_loss)
        marginal = sum(outcomes) / len(outcomes)
        assert conditional > marginal * 2


class TestMulticastChannel:
    def test_subscribe_and_unsubscribe(self):
        channel = MulticastChannel(seed=0)
        channel.subscribe("a", BernoulliLoss(0.0))
        assert channel.subscribers() == ["a"]
        channel.unsubscribe("a")
        assert channel.subscribers() == []
        channel.unsubscribe("a")  # idempotent

    def test_duplicate_subscribe_rejected(self):
        channel = MulticastChannel(seed=0)
        channel.subscribe("a", BernoulliLoss(0.0))
        with pytest.raises(ValueError):
            channel.subscribe("a", BernoulliLoss(0.0))

    def test_loss_of_unknown_raises(self):
        with pytest.raises(KeyError):
            MulticastChannel(seed=0).loss_of("ghost")

    def test_lossless_multicast_reaches_everyone(self):
        channel = MulticastChannel(seed=0)
        for i in range(10):
            channel.subscribe(f"r{i}", BernoulliLoss(0.0))
        report = channel.multicast("pkt")
        assert len(report.delivered_to) == 10

    def test_certain_loss_reaches_no_one(self):
        channel = MulticastChannel(seed=0)
        channel.subscribe("r", BernoulliLoss(0.999999999))
        report = channel.multicast("pkt")
        assert report.lost_at == {"r"}

    def test_audience_scopes_the_report(self):
        channel = MulticastChannel(seed=0)
        for i in range(5):
            channel.subscribe(f"r{i}", BernoulliLoss(0.0))
        report = channel.multicast("pkt", audience={"r1", "r3"})
        assert report.delivered_to == {"r1", "r3"}

    def test_audience_ignores_unsubscribed(self):
        channel = MulticastChannel(seed=0)
        channel.subscribe("r0", BernoulliLoss(0.0))
        report = channel.multicast("pkt", audience={"r0", "ghost"})
        assert report.delivered_to == {"r0"}

    def test_counters(self):
        channel = MulticastChannel(seed=1)
        channel.subscribe("a", BernoulliLoss(0.0))
        channel.subscribe("b", BernoulliLoss(0.5))
        for __ in range(100):
            channel.multicast("pkt")
        assert channel.packets_sent == 100
        assert channel.receptions + channel.losses == 200

    def test_reproducible_with_seed(self):
        def run(seed):
            channel = MulticastChannel(seed=seed)
            channel.subscribe("a", BernoulliLoss(0.3))
            return [bool(channel.multicast(i).delivered_to) for i in range(50)]

        assert run(9) == run(9)
        assert run(9) != run(10)


class TestPerReceiverStreams:
    """Satellite regression: every receiver draws from its own RNG stream,
    so changing the rest of the subscription set never shifts its draws."""

    @staticmethod
    def _outcomes(channel, receiver_id, packets=60):
        results = []
        for i in range(packets):
            report = channel.multicast(i)
            results.append(receiver_id in report.delivered_to)
        return results

    def test_unsubscribing_neighbor_does_not_shift_draws(self):
        alone = MulticastChannel(seed=5)
        alone.subscribe("keeper", BernoulliLoss(0.4))
        baseline = self._outcomes(alone, "keeper")

        crowded = MulticastChannel(seed=5)
        crowded.subscribe("keeper", BernoulliLoss(0.4))
        for i in range(8):
            crowded.subscribe(f"other{i}", BernoulliLoss(0.4))
        interleaved = []
        for i in range(60):
            if i == 20:
                for j in range(4):
                    crowded.unsubscribe(f"other{j}")
            if i == 40:
                crowded.subscribe("latecomer", BernoulliLoss(0.9))
            report = crowded.multicast(i)
            interleaved.append("keeper" in report.delivered_to)
        assert interleaved == baseline

    def test_streams_differ_between_receivers(self):
        channel = MulticastChannel(seed=5)
        channel.subscribe("a", BernoulliLoss(0.5))
        channel.subscribe("b", BernoulliLoss(0.5))
        a_draws = [channel.stream_of("a").random() for __ in range(20)]
        b_draws = [channel.stream_of("b").random() for __ in range(20)]
        assert a_draws != b_draws

    def test_stream_stable_across_processes(self):
        """str-seeded Random uses sha512, not PYTHONHASHSEED — pin a draw."""
        channel = MulticastChannel(seed=0)
        channel.subscribe("m0", BernoulliLoss(0.5))
        expected = random.Random("0/m0").random()
        assert channel.stream_of("m0").random() == expected

    def test_stream_of_unknown_raises(self):
        with pytest.raises(KeyError):
            MulticastChannel(seed=0).stream_of("ghost")

    def test_resubscribe_restarts_stream(self):
        channel = MulticastChannel(seed=3)
        channel.subscribe("r", BernoulliLoss(0.5))
        first = [channel.stream_of("r").random() for __ in range(5)]
        channel.unsubscribe("r")
        channel.subscribe("r", BernoulliLoss(0.5))
        assert [channel.stream_of("r").random() for __ in range(5)] == first


class TestUnsubscribeMidDelivery:
    """Satellite edge case: a receiver departing while a multicast round is
    in flight must simply drop out, not corrupt the report."""

    def test_unsubscribe_during_draw_is_skipped(self):
        channel = MulticastChannel(seed=0)

        class Evicting(BernoulliLoss):
            """A loss process that unsubscribes a *different* receiver the
            moment its own draw runs (models a departure event firing
            between per-receiver draws of one packet)."""

            def __init__(self, victim):
                super().__init__(0.0)
                self.victim = victim

            def lost(self, rng):
                channel.unsubscribe(self.victim)
                return False

        channel.subscribe("a", Evicting("b"))
        channel.subscribe("b", BernoulliLoss(0.0))
        channel.subscribe("c", BernoulliLoss(0.0))
        # No audience: targets iterate in (deterministic) subscription
        # order, so a's draw runs — and evicts b — before b's would.
        report = channel.multicast("pkt")
        assert "a" in report.delivered_to
        assert "c" in report.delivered_to
        # b was unsubscribed mid-round: absent from both outcome sets.
        assert "b" not in report.delivered_to
        assert "b" not in report.lost_at
        assert "b" not in channel

    def test_self_unsubscribe_during_draw(self):
        channel = MulticastChannel(seed=0)

        class SelfEvicting(BernoulliLoss):
            def __init__(self):
                super().__init__(0.0)

            def lost(self, rng):
                channel.unsubscribe("a")
                return False

        channel.subscribe("a", SelfEvicting())
        channel.subscribe("b", BernoulliLoss(0.0))
        report = channel.multicast("pkt")
        # The departure lands for subsequent packets either way; the draw
        # already in flight may complete.
        assert "b" in report.delivered_to
        assert "a" not in channel
        follow_up = channel.multicast("pkt2")
        assert "a" not in follow_up.delivered_to
        assert "a" not in follow_up.lost_at


# ----------------------------------------------------------------------
# The column draw against the per-receiver loop
# ----------------------------------------------------------------------


class LoopChannel(MulticastChannel):
    """Oracle: one ``loss.lost(stream)`` per audience id, in order, through
    public calls only — the draw as it was before the rate column."""

    def _draw(self, packet, audience):
        delivered, lost = set(), set()
        for rid in self.subscribers() if audience is None else list(audience):
            if rid not in self:
                continue
            if self.loss_of(rid).lost(self.stream_of(rid)):
                lost.add(rid)
            else:
                delivered.add(rid)
        return DeliveryReport(packet, delivered, lost)


class SubclassedBernoulli(BernoulliLoss):
    """Same draws as its parent, but not exactly a BernoulliLoss."""


def make_loss(kind, rate):
    if kind == "gilbert":
        return GilbertElliottLoss(p_good_to_bad=0.3, p_bad_to_good=0.4, bad_loss=rate)
    return (SubclassedBernoulli if kind == "subclass" else BernoulliLoss)(rate)


IDS = [f"r{i}" for i in range(8)]
RATES = st.one_of(st.sampled_from([0.0, 0.999999999]), st.floats(0.0, 0.99))
SPEC = st.tuples(
    st.sampled_from(["bernoulli"] * 4 + ["subclass", "gilbert"]),
    RATES,
    st.integers(0, 3),  # draws taken before the run: a fresh or advanced stream
)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("send"), st.integers(0, 3)),
        st.tuples(st.just("prepare"), st.integers(0, 3)),
        st.tuples(st.just("toggle"), st.sampled_from(IDS)),
    ),
    max_size=30,
)


class TestColumnDraw:
    """Prepared, on-the-fly and per-receiver-loop draws over the same
    subscriptions: the same outcomes, counters and stream states."""

    @staticmethod
    def channels(population, seed):
        made = []
        for cls in (MulticastChannel, MulticastChannel, LoopChannel):
            channel = cls(seed=seed)
            for rid, (kind, rate, advance) in population.items():
                channel.subscribe(rid, make_loss(kind, rate))
                for __ in range(advance):
                    channel.stream_of(rid).random()
            made.append(channel)
        return made

    @settings(max_examples=150, deadline=None)
    @given(
        population=st.dictionaries(st.sampled_from(IDS), SPEC, max_size=8),
        audiences=st.lists(
            st.lists(st.sampled_from(IDS + ["ghost"]), max_size=10),
            min_size=4, max_size=4,
        ),
        ops=OPS,
        seed=st.integers(0, 2**16),
    )
    def test_three_draws_agree(self, population, audiences, ops, seed):
        prepared_channel, fly_channel, loop_channel = self.channels(population, seed)
        prepared = [prepared_channel.prepare(audience) for audience in audiences]
        for step, (op, arg) in enumerate(ops):
            if op == "prepare":
                prepared[arg] = prepared_channel.prepare(audiences[arg])
            elif op == "toggle":
                kind, rate, __ = population.get(arg, ("bernoulli", 0.5, 0))
                for channel in (prepared_channel, fly_channel, loop_channel):
                    if arg in channel:
                        channel.unsubscribe(arg)
                    else:
                        channel.subscribe(arg, make_loss(kind, rate))
            else:
                reports = [
                    prepared_channel.multicast(step, prepared[arg]),
                    fly_channel.multicast(step, audiences[arg]),
                    loop_channel.multicast(step, audiences[arg]),
                ]
                assert reports[0] == reports[2] and reports[1] == reports[2]
        channels = (prepared_channel, fly_channel, loop_channel)
        everyone = [channel.multicast("all") for channel in channels]
        assert everyone[0] == everyone[2] and everyone[1] == everyone[2]
        subscribed = sorted(loop_channel.subscribers())
        for channel in channels:
            assert (channel.receptions, channel.losses) == (
                loop_channel.receptions, loop_channel.losses,
            )
            assert sorted(channel.subscribers()) == subscribed
            for rid in subscribed:
                assert (
                    channel.stream_of(rid).getstate()
                    == loop_channel.stream_of(rid).getstate()
                ), rid

    def test_extreme_rates(self):
        population = {
            "never": ("bernoulli", 0.0, 0),
            "always": ("bernoulli", 0.999999999, 2),
        }
        prepared_channel, fly_channel, loop_channel = self.channels(population, 4)
        audience = prepared_channel.prepare(["never", "always"])
        for packet in range(20):
            reports = [
                prepared_channel.multicast(packet, audience),
                fly_channel.multicast(packet, ["never", "always"]),
                loop_channel.multicast(packet, ["never", "always"]),
            ]
            assert reports[0] == reports[1] == reports[2]
            assert reports[0].delivered_to == {"never"}
            assert reports[0].lost_at == {"always"}

    def test_repeated_id_draws_once_per_occurrence(self):
        population = {"a": ("bernoulli", 0.5, 0), "b": ("bernoulli", 0.5, 1)}
        audience = ["a", "b", "a", "a"]
        prepared_channel, fly_channel, loop_channel = self.channels(population, 2)
        prepared = prepared_channel.prepare(audience)
        assert list(prepared) == audience and len(prepared) == 4 and "a" in prepared
        split = False
        for packet in range(30):
            reports = [
                prepared_channel.multicast(packet, prepared),
                fly_channel.multicast(packet, audience),
                loop_channel.multicast(packet, audience),
            ]
            assert reports[0] == reports[1] == reports[2]
            split |= "a" in reports[0].delivered_to and "a" in reports[0].lost_at
        # Three draws of one stream for one packet: sometimes one of each.
        assert split
        for rid in population:
            state = loop_channel.stream_of(rid).getstate()
            assert prepared_channel.stream_of(rid).getstate() == state
            assert fly_channel.stream_of(rid).getstate() == state

    def test_prepared_before_unsubscribe(self):
        channel = MulticastChannel(seed=1)
        for rid in ("a", "b", "c"):
            channel.subscribe(rid, BernoulliLoss(0.3))
        prepared = channel.prepare(["a", "b", "c"])
        channel.unsubscribe("b")
        report = channel.multicast("pkt", prepared)
        assert "b" not in report.delivered_to and "b" not in report.lost_at
        assert report.delivered_to | report.lost_at == {"a", "c"}

    def test_prepared_before_subscribe(self):
        channel, oracle = MulticastChannel(seed=1), LoopChannel(seed=1)
        for each in (channel, oracle):
            each.subscribe("a", BernoulliLoss(0.3))
        prepared = channel.prepare(["a", "late"])
        for each in (channel, oracle):
            each.subscribe("late", BernoulliLoss(0.3))
        report = channel.multicast("pkt", prepared)
        assert report == oracle.multicast("pkt", ["a", "late"])
        assert report.delivered_to | report.lost_at == {"a", "late"}

    def test_only_exact_bernoulli_audiences_take_columns(self):
        channel = MulticastChannel(seed=3)
        channel.subscribe("plain", BernoulliLoss(0.2))
        channel.subscribe("bursty", GilbertElliottLoss())
        channel.subscribe("subclass", SubclassedBernoulli(0.2))
        assert channel.prepare(["plain", "ghost"]).columns is not None
        assert channel.prepare(["plain", "bursty"]).columns is None
        assert channel.prepare(["subclass"]).columns is None

    def test_prepare_builds_the_streams_a_draw_would(self):
        channel = MulticastChannel(seed=5)
        for rid in ("a", "b"):
            channel.subscribe(rid, BernoulliLoss(0.4))
        prepared = channel.prepare(["a"])
        assert isinstance(prepared, PreparedAudience)
        assert prepared.columns[1] == [channel._streams["a"]]
        assert "b" not in channel._streams

    def test_prepared_on_another_channel_takes_the_loop(self):
        here, there, oracle = (
            MulticastChannel(seed=6), MulticastChannel(seed=6), LoopChannel(seed=6)
        )
        for channel in (here, there, oracle):
            channel.subscribe("a", BernoulliLoss(0.4))
        foreign = there.prepare(["a"])
        assert here.multicast("pkt", foreign) == oracle.multicast("pkt", ["a"])
        # Drawn from this channel's stream; the other's has not moved.
        assert here.stream_of("a").getstate() == oracle.stream_of("a").getstate()
        assert there.stream_of("a").getstate() == random.Random("6/a").getstate()


class TestMembershipQueries:
    def test_subscribed_and_unsubscribed_keep_order(self):
        channel = MulticastChannel(seed=0)
        for rid in ("c", "a"):
            channel.subscribe(rid, BernoulliLoss(0.0))
        ids = ["a", "x", "c", "y", "a"]
        assert channel.subscribed(ids) == ["a", "c", "a"]
        assert channel.unsubscribed(ids) == ["x", "y"]
        assert channel.unsubscribed({"a": 1, "z": 2}) == ["z"]
