"""Unit and behavioural tests for the three rekey transport protocols."""

import pytest

from repro.crypto.material import KeyGenerator
from repro.crypto.wrap import wrap_key
from repro.faults.retry import RetryPolicy
from repro.network.channel import MulticastChannel
from repro.network.loss import BernoulliLoss
from repro.transport.fec import ProactiveFecProtocol
from repro.transport.multisend import MultiSendProtocol
from repro.transport.session import (
    TransportExhausted,
    TransportResult,
    TransportTask,
)
from repro.transport.wka_bkr import WkaBkrProtocol


def make_task(key_count, interest):
    """A task over ``key_count`` synthetic encrypted keys."""
    gen = KeyGenerator(31)
    wrapping = gen.generate("w")
    keys = [wrap_key(wrapping, gen.generate(f"k{i}")) for i in range(key_count)]
    return TransportTask(keys=keys, interest={r: set(w) for r, w in interest.items()})


def make_channel(losses):
    channel = MulticastChannel(seed=17)
    for receiver, rate in losses.items():
        channel.subscribe(receiver, BernoulliLoss(rate))
    return channel


PROTOCOLS = [
    MultiSendProtocol(keys_per_packet=4, replication=1),
    WkaBkrProtocol(keys_per_packet=4),
    ProactiveFecProtocol(keys_per_packet=4, block_size=3, proactivity=1.0),
]


@pytest.mark.parametrize("protocol", PROTOCOLS, ids=lambda p: p.name)
class TestCommonBehaviour:
    def test_lossless_delivery_single_round(self, protocol):
        task = make_task(10, {"a": range(10), "b": range(5)})
        channel = make_channel({"a": 0.0, "b": 0.0})
        result = protocol.run(task, channel)
        assert result.satisfied
        assert result.rounds == 1

    def test_lossy_delivery_completes(self, protocol):
        task = make_task(20, {f"r{i}": range(20) for i in range(10)})
        channel = make_channel({f"r{i}": 0.3 for i in range(10)})
        result = protocol.run(task, channel)
        assert result.satisfied
        assert result.keys_sent >= 20

    def test_empty_interest_is_free_of_rounds(self, protocol):
        task = make_task(5, {})
        channel = make_channel({})
        result = protocol.run(task, channel)
        assert result.satisfied

    def test_heterogeneous_losses_complete(self, protocol):
        interest = {f"r{i}": range(12) for i in range(6)}
        task = make_task(12, interest)
        losses = {f"r{i}": (0.4 if i < 2 else 0.02) for i in range(6)}
        result = protocol.run(task, make_channel(losses))
        assert result.satisfied


class TestMultiSend:
    def test_replication_multiplies_first_round(self):
        task = make_task(8, {"a": range(8)})
        channel = make_channel({"a": 0.0})
        single = MultiSendProtocol(keys_per_packet=4, replication=1).run(
            task, channel
        )
        task2 = make_task(8, {"a": range(8)})
        double = MultiSendProtocol(keys_per_packet=4, replication=3).run(
            task2, make_channel({"a": 0.0})
        )
        assert double.keys_sent == 3 * single.keys_sent

    def test_rejects_zero_replication(self):
        with pytest.raises(ValueError):
            MultiSendProtocol(replication=0)


class TestWkaBkr:
    def test_lossless_sends_each_key_once(self):
        task = make_task(10, {"a": range(10), "b": range(10)})
        result = WkaBkrProtocol(keys_per_packet=4).run(
            task, make_channel({"a": 0.0, "b": 0.0})
        )
        assert result.keys_sent == 10

    def test_high_loss_audience_triggers_replication(self):
        interest = {f"r{i}": range(4) for i in range(64)}
        task = make_task(4, interest)
        channel = make_channel({f"r{i}": 0.25 for i in range(64)})
        result = WkaBkrProtocol(keys_per_packet=4).run(task, channel)
        # First round alone already carries >1 copy of each key.
        assert result.keys_sent > 4

    def test_keys_without_audience_are_never_sent(self):
        task = make_task(10, {"a": {0, 1}})
        result = WkaBkrProtocol(keys_per_packet=4).run(task, make_channel({"a": 0.0}))
        assert result.keys_sent == 2

    def test_invalid_packing_rejected(self):
        with pytest.raises(ValueError):
            WkaBkrProtocol(packing="widthwise")

    def test_dfs_packing_also_completes(self):
        interest = {f"r{i}": range(16) for i in range(8)}
        task = make_task(16, interest)
        channel = make_channel({f"r{i}": 0.2 for i in range(8)})
        result = WkaBkrProtocol(keys_per_packet=4, packing="dfs").run(task, channel)
        assert result.satisfied

    def test_beats_multisend_on_real_rekey_payload(self):
        """The [SZJ02] claim: WKA-BKR has lower bandwidth overhead than
        multi-send in most loss scenarios.  The advantage comes from the
        rekey payload's *sparseness* (per-key audiences shrink with tree
        depth), so the comparison uses a real batched-LKH payload, not a
        uniform-interest blob."""
        import random

        from repro.keytree.lkh import LkhRekeyer
        from repro.keytree.tree import KeyTree
        from repro.transport.session import build_task

        def scenario(seed, protocol):
            tree = KeyTree(degree=4, keygen=KeyGenerator(seed))
            rekeyer = LkhRekeyer(tree)
            members = [f"m{i}" for i in range(256)]
            rekeyer.rekey_batch(joins=[(m, None) for m in members])
            held = {
                m: {n.key.key_id: n.key.version for n in tree.path_of(m)}
                for m in members
            }
            victims = random.Random(seed).sample(members, 16)
            message = rekeyer.rekey_batch(departures=victims)
            survivors = [m for m in members if m not in victims]
            task = build_task(message, {m: held[m] for m in survivors})
            channel = MulticastChannel(seed=seed + 100)
            for m in survivors:
                channel.subscribe(m, BernoulliLoss(0.15))
            return protocol.run(task, channel).keys_sent

        wka = sum(scenario(s, WkaBkrProtocol(keys_per_packet=8)) for s in range(5))
        multi = sum(
            scenario(s, MultiSendProtocol(keys_per_packet=8, replication=2))
            for s in range(5)
        )
        assert wka < multi


class PerPacketScanWkaBkr(WkaBkrProtocol):
    """Oracle: the round loop as it was before the audience index.

    Every packet's audience is recomputed by scanning every outstanding
    receiver, and the round's ``key index -> audience`` map is built by
    hand.  Slow, but obviously right; the production loop must make the
    same multicasts to the same audiences.
    """

    def run(self, task, channel):
        result = TransportResult()
        outstanding = {
            rid: set(wanted) for rid, wanted in task.interest.items() if wanted
        }
        round_cap = self.retry.max_rounds if self.retry is not None else self.max_rounds
        seqno = 0
        for round_index in range(round_cap):
            outstanding = {
                rid: wanted for rid, wanted in outstanding.items() if rid in channel
            }
            if not outstanding:
                break
            if self.retry is not None:
                result.elapsed += self.retry.delay_before_round(round_index)
            if round_index > 0:
                result.late.update(outstanding)
            audiences = {}
            for rid, wanted in outstanding.items():
                for index in wanted:
                    audiences.setdefault(index, set()).add(rid)
            packets = self._build_round_packets(audiences, channel, seqno)
            seqno += len(packets)
            keys_this_round = 0
            for packet in packets:
                keys_this_round += packet.key_count
                audience = {
                    rid
                    for rid, wanted in outstanding.items()
                    if wanted.intersection(packet.key_indices)
                }
                if not audience:
                    continue
                report = channel.multicast(packet, audience=audience)
                for rid in report.delivered_to:
                    outstanding[rid] -= set(packet.key_indices)
                    if not outstanding[rid]:
                        del outstanding[rid]
                        result.completed[rid] = result.elapsed
            result.merge_round(packets=len(packets), keys=keys_this_round)
            if self.retry is not None and self.retry.should_abandon(round_index + 1):
                result.abandoned.update(outstanding)
                outstanding.clear()
        if outstanding:
            raise TransportExhausted("oracle exhausted", result, set(outstanding))
        result.satisfied = True
        return result


class RecordingChannel(MulticastChannel):
    """Logs every multicast's audience; can drop a receiver mid-delivery."""

    def __init__(self, seed, unsubscribe_at=None):
        super().__init__(seed=seed)
        self.log = []
        self.unsubscribe_at = dict(unsubscribe_at or {})

    def multicast(self, packet, audience=None):
        leaver = self.unsubscribe_at.get(len(self.log))
        if leaver is not None:
            self.unsubscribe(leaver)
        self.log.append((packet.seqno, packet.key_indices, frozenset(audience)))
        return super().multicast(packet, audience=audience)


class TestWkaBkrAudienceIndexEquivalence:
    """The audience-indexed round loop against the per-packet scan: the
    same packets to the same audiences, hence the same per-receiver draws."""

    RECEIVERS = 340

    def lossy_task(self, seed):
        import random

        from repro.keytree.lkh import LkhRekeyer
        from repro.keytree.tree import KeyTree
        from repro.transport.session import build_task

        tree = KeyTree(degree=4, keygen=KeyGenerator(seed))
        rekeyer = LkhRekeyer(tree)
        members = [f"m{i}" for i in range(self.RECEIVERS + 24)]
        rekeyer.rekey_batch(joins=[(m, None) for m in members])
        held = {
            m: {n.key.key_id: n.key.version for n in tree.path_of(m)}
            for m in members
        }
        rng = random.Random(seed)
        victims = set(rng.sample(members, 24))
        message = rekeyer.rekey_batch(departures=sorted(victims))
        survivors = [m for m in members if m not in victims]
        task = build_task(message, {m: held[m] for m in survivors})
        # The paper's two-point population: 30% of receivers at 20% loss.
        rates = {m: 0.20 if rng.random() < 0.3 else 0.02 for m in survivors}
        return task, rates

    def run_both(self, seed, rates_override=None, unsubscribe_at=None, **protocol):
        outcomes = []
        for cls in (PerPacketScanWkaBkr, WkaBkrProtocol):
            task, rates = self.lossy_task(seed)
            rates.update(rates_override or {})
            channel = RecordingChannel(seed + 100, unsubscribe_at)
            for rid, rate in rates.items():
                channel.subscribe(rid, BernoulliLoss(rate))
            result = cls(keys_per_packet=8, **protocol).run(task, channel)
            outcomes.append((result, channel))
        return outcomes

    def assert_same(self, outcomes):
        (expected, oracle_channel), (actual, channel) = outcomes
        for name in (
            "rounds", "packets_sent", "keys_sent", "per_round_packets",
            "late", "abandoned", "completed", "elapsed", "satisfied",
        ):
            assert getattr(actual, name) == getattr(expected, name), name
        assert channel.log == oracle_channel.log
        assert channel.receptions == oracle_channel.receptions
        assert channel.losses == oracle_channel.losses
        assert channel.packets_sent == oracle_channel.packets_sent
        # Not just equal totals: every receiver's RNG stream stopped at
        # the same draw.
        assert sorted(channel.subscribers()) == sorted(oracle_channel.subscribers())
        for rid in channel.subscribers():
            assert (
                channel.stream_of(rid).getstate()
                == oracle_channel.stream_of(rid).getstate()
            ), rid

    @pytest.mark.parametrize("packing", ["bfs", "dfs"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_two_point_loss_with_replicated_keys(self, seed, packing):
        outcomes = self.run_both(seed, packing=packing)
        result, channel = outcomes[1]
        assert len(result.completed) >= 300
        assert result.keys_sent > len({i for __, keys, __ in channel.log for i in keys})
        assert result.late  # somebody needed a BKR round
        # A key replicated within round 0 reaches fewer receivers the
        # second time: those who got the first copy are not drawn again.
        first_round = channel.log[: result.per_round_packets[0]]
        root = max(
            {i for __, keys, __ in first_round for i in keys},
            key=lambda i: sum(keys.count(i) for __, keys, __ in first_round),
        )
        carrying = [aud for __, keys, aud in first_round if root in keys]
        assert len(carrying) > 1 and len(carrying[-1]) < len(carrying[0])
        self.assert_same(outcomes)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_receiver_unsubscribed_mid_delivery(self, seed):
        task, __ = self.lossy_task(seed)
        # The two receivers needing the most keys: still outstanding, and
        # already drawn for, when they leave after one and three packets.
        leavers = sorted(task.interest, key=lambda r: (-len(task.interest[r]), r))[:2]
        outcomes = self.run_both(
            seed, unsubscribe_at={1: leavers[0], 3: leavers[1]}
        )
        result, channel = outcomes[1]
        assert all(rid in channel.log[0][2] for rid in leavers)
        assert not set(leavers) & set(channel.subscribers())
        assert not set(leavers) & set(result.completed)
        self.assert_same(outcomes)

    @pytest.mark.parametrize("seed", [6, 7])
    def test_retry_policy_with_abandonment(self, seed):
        task, __ = self.lossy_task(seed)
        hopeless = sorted(task.interest)[:3]
        policy = RetryPolicy(max_rounds=6, base_delay=0.5, abandon_after=3)
        outcomes = self.run_both(
            seed, rates_override={rid: 0.999 for rid in hopeless}, retry=policy
        )
        result, __ = outcomes[1]
        assert set(hopeless) <= result.abandoned
        assert result.elapsed == policy.total_delay(result.rounds)
        self.assert_same(outcomes)


class TestProactiveFec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProactiveFecProtocol(block_size=0)
        with pytest.raises(ValueError):
            ProactiveFecProtocol(proactivity=0.5)

    def test_proactive_parity_counted(self):
        task = make_task(8, {"a": range(8)})
        result = ProactiveFecProtocol(
            keys_per_packet=4, block_size=2, proactivity=1.5
        ).run(task, make_channel({"a": 0.0}))
        assert result.parity_packets == 1  # ceil(0.5 * 2) per block, 1 block... 2 blocks? see below
        # 8 keys / 4 per packet = 2 payload packets = 1 block of 2 -> 1 parity
        assert result.satisfied

    def test_parity_recovers_block_without_direct_reception(self):
        """A receiver that got any k packets of a block is satisfied even
        if its interested payload packet was lost."""
        task = make_task(4, {"a": range(4)})
        protocol = ProactiveFecProtocol(
            keys_per_packet=2, block_size=2, proactivity=2.0
        )
        channel = make_channel({"a": 0.5})
        result = protocol.run(task, channel)
        assert result.satisfied

    def test_cost_grows_with_worst_receiver(self):
        """One high-loss receiver inflates the whole block's parity — the
        mechanism Section 4 relieves."""

        def cost(high_loss_receivers, seed):
            interest = {f"r{i}": range(32) for i in range(20)}
            task = make_task(32, interest)
            channel = MulticastChannel(seed=seed)
            for i in range(20):
                rate = 0.4 if i < high_loss_receivers else 0.02
                channel.subscribe(f"r{i}", BernoulliLoss(rate))
            protocol = ProactiveFecProtocol(keys_per_packet=4, block_size=4)
            return protocol.run(task, channel).keys_sent

        mixed = sum(cost(4, s) for s in range(5))
        clean = sum(cost(0, s) for s in range(5))
        assert mixed > clean
