"""Unit and behavioural tests for the three rekey transport protocols."""

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Set

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.wka import expected_transmissions
from repro.crypto.material import KeyGenerator
from repro.crypto.wrap import wrap_key
from repro.faults.retry import RetryPolicy
from repro.network.channel import MulticastChannel
from repro.network.loss import BernoulliLoss, GilbertElliottLoss
from repro.transport.fec import ProactiveFecProtocol
from repro.transport.multisend import MultiSendProtocol
from repro.transport.packets import KeyPacket, pack_indices
from repro.transport.session import TransportExhausted, TransportResult
from repro.transport.wka_bkr import WkaBkrProtocol, _LossClasses

from tests.helpers import interest_of, task_of


def make_task(key_count, interest):
    """A task over ``key_count`` synthetic encrypted keys."""
    gen = KeyGenerator(31)
    wrapping = gen.generate("w")
    keys = [wrap_key(wrapping, gen.generate(f"k{i}")) for i in range(key_count)]
    return task_of(keys, interest)


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

        from repro.testing.lkh import LkhRekeyer
        from repro.testing.oracle import build_task
        from repro.testing.tree import KeyTree

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
        outstanding = interest_of(task.audiences)
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

        from repro.testing.lkh import LkhRekeyer
        from repro.testing.oracle import build_task
        from repro.testing.tree import KeyTree

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
        interest = interest_of(task.audiences)
        leavers = sorted(interest, key=lambda r: (-len(interest[r]), r))[:2]
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
        hopeless = sorted(interest_of(task.audiences))[:3]
        policy = RetryPolicy(max_rounds=6, base_delay=0.5, abandon_after=3)
        outcomes = self.run_both(
            seed, rates_override={rid: 0.999 for rid in hopeless}, retry=policy
        )
        result, __ = outcomes[1]
        assert set(hopeless) <= result.abandoned
        assert result.elapsed == policy.total_delay(result.rounds)
        self.assert_same(outcomes)

    @pytest.mark.parametrize("seed", [8, 9])
    def test_three_rate_population(self, seed):
        __, rates = self.lossy_task(seed)
        three = {rid: (0.25, 0.08, 0.02)[i % 3] for i, rid in enumerate(sorted(rates))}
        outcomes = self.run_both(seed, rates_override=three)
        result, __ = outcomes[1]
        assert result.late and result.keys_sent > result.per_round_packets[0]
        self.assert_same(outcomes)

    def test_replicated_key_twice_in_one_packet(self):
        """Two keys that each weigh 3 fill one packet of 8 with three
        copies of each: a delivery counts each key once."""
        outcomes = []
        for cls in (PerPacketScanWkaBkr, WkaBkrProtocol):
            interest = {f"r{i}": {0, 1} for i in range(30)}
            interest["odd"] = {1}
            task = make_task(2, interest)
            channel = RecordingChannel(41)
            for rid in interest:
                channel.subscribe(rid, BernoulliLoss(0.2))
            outcomes.append((cls(keys_per_packet=8).run(task, channel), channel))
        result, channel = outcomes[1]
        assert channel.log[0][1] == (1, 0, 1, 0, 1, 0)  # widest audience first
        assert result.satisfied and len(result.completed) == 31
        self.assert_same(outcomes)


def pre_change_weight(audience, rates):
    """``WkaBkrProtocol._weight`` before it was memoized: the mixture in
    the order the audience first meets each rate."""
    if not audience:
        return 0
    return max(1, round(first_seen_expectation(audience, rates)))


def first_seen_expectation(audience, rates):
    counts = Counter(rates[rid] for rid in audience)
    total = sum(counts.values())
    mixture = [(rate, count / total) for rate, count in counts.items()]
    return expected_transmissions(float(total), mixture)


WEIGHED_RATE = st.floats(0.0, WkaBkrProtocol.MAX_WEIGHT_RATE)


class TestWkaWeightMemo:
    """The class-code weight, memoized on the audience's code sum,
    against the pre-change weight, whose mixture order was set iteration
    order."""

    @staticmethod
    def population(data, pool, size):
        rates = {f"r{i}": data.draw(st.sampled_from(pool)) for i in range(size)}
        return rates, data.draw(st.permutations(sorted(rates)))

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        distinct=st.lists(WEIGHED_RATE, min_size=1, max_size=2, unique=True),
        zero=st.booleans(),
        size=st.integers(1, 40),
    )
    def test_two_rates_bit_equal_in_any_order(self, data, distinct, zero, size):
        rates, order = self.population(data, distinct + [0.0] * zero, size)
        by_rate = sorted(order, key=rates.__getitem__)
        # At most two non-zero terms per step of the eq. 14 sum.
        assert first_seen_expectation(order, rates) == first_seen_expectation(
            by_rate, rates
        )
        weight = _LossClasses(rates).weight(set(order))
        assert weight == pre_change_weight(order, rates)
        assert weight == pre_change_weight(order[::-1], rates)

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        distinct=st.lists(WEIGHED_RATE, min_size=3, max_size=4, unique=True),
        size=st.integers(3, 40),
    )
    def test_more_rates_are_order_independent(self, data, distinct, size):
        rates, order = self.population(data, distinct, size)
        weigh = _LossClasses(rates).weight
        weight = weigh(order)
        assert weigh(order[::-1]) == weigh(set(order)) == weight
        # The profile's mixture is in ascending rate order.
        assert weight == pre_change_weight(sorted(order, key=rates.__getitem__), rates)

    def test_empty_audience_weighs_nothing(self):
        assert _LossClasses({}).weight(set()) == 0
        assert _LossClasses({"a": 0.2}).weight(()) == 0


#: Channel rates for the class-code battery: four below the clamp, three
#: above it (all clamped into one class), and the non-Bernoulli processes
#: the channel reports by ``mean_loss`` (one of them above the clamp).
CHANNEL_RATES = [0.0, 0.02, 0.2, 0.45, 0.92, 0.95, 0.999]
OTHER_PROCESSES = {
    "bursty": lambda: GilbertElliottLoss(p_good_to_bad=0.3, p_bad_to_good=0.4),
    "reported": lambda: ReportedMeanBernoulli(0.2),
}


class TestClassCodeWeighing:
    """The weight a delivery's class codes give every audience equals the
    pre-change weight over the receivers' clamped ``mean_loss``: 1 to 4
    distinct rates, rates above ``MAX_WEIGHT_RATE`` merging into one
    class, and receivers whose process is not Bernoulli."""

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        pool=st.lists(
            st.sampled_from(CHANNEL_RATES), min_size=1, max_size=4, unique=True
        ),
        size=st.integers(1, 40),
        others=st.lists(st.sampled_from(sorted(OTHER_PROCESSES)), max_size=3),
    )
    def test_weights_equal_the_pre_change_weight(self, data, pool, size, others):
        channel = MulticastChannel(seed=5)
        for i in range(size):
            channel.subscribe(f"r{i}", BernoulliLoss(data.draw(st.sampled_from(pool))))
        for i, name in enumerate(others):
            channel.subscribe(f"{name}{i}", OTHER_PROCESSES[name]())
        ids = channel.subscribers()
        protocol = WkaBkrProtocol()
        classes = _LossClasses(protocol._weight_rates(ids, channel))
        clamped = {
            rid: min(channel.loss_of(rid).mean_loss, protocol.MAX_WEIGHT_RATE)
            for rid in ids
        }
        assert len(classes.rates) == len(set(clamped.values())) <= len(pool) + 2
        for __ in range(5):
            audience = data.draw(st.sets(st.sampled_from(ids), min_size=1))
            by_rate = sorted(audience, key=clamped.__getitem__)
            assert classes.profile(sum(map(classes.code.__getitem__, audience))) == (
                tuple(sorted(Counter(map(clamped.__getitem__, audience)).items()))
            )
            assert classes.weight(audience) == pre_change_weight(by_rate, clamped)

    def test_clamped_classes_merge(self):
        channel = MulticastChannel(seed=5)
        for rid, rate in {"a": 0.95, "b": 0.999, "c": 0.92, "d": 0.2}.items():
            channel.subscribe(rid, BernoulliLoss(rate))
        channel.subscribe("e", ReportedMeanBernoulli(0.2))  # reports 0.95
        classes = _LossClasses(WkaBkrProtocol()._weight_rates("abcde", channel))
        assert classes.rates == [0.2, 0.9]
        assert classes.profile(sum(classes.code.values())) == ((0.2, 1), (0.9, 4))


class ReportedMeanBernoulli(BernoulliLoss):
    """Draws at its rate but reports another long-run mean."""

    @property
    def mean_loss(self):
        return 0.95


class TestLossRates:
    def test_each_process_reports_its_mean(self):
        channel = MulticastChannel(seed=2)
        losses = {
            "plain": BernoulliLoss(0.2),
            "high": BernoulliLoss(0.95),
            "bursty": GilbertElliottLoss(p_good_to_bad=0.3, p_bad_to_good=0.4),
            "subclass": ReportedMeanBernoulli(0.2),
        }
        for rid, loss in losses.items():
            channel.subscribe(rid, loss)
        channel.subscribe("gone", BernoulliLoss(0.1))
        channel.unsubscribe("gone")
        ids = ["ghost", *losses, "gone"]
        rates = channel.loss_rates(ids)
        assert rates == {rid: loss.mean_loss for rid, loss in losses.items()}
        assert rates == {rid: channel.loss_of(rid).mean_loss for rid in losses}
        assert rates["subclass"] == 0.95 and rates["bursty"] == losses["bursty"].mean_loss
        assert channel.loss_rates(iter(ids)) == rates
        assert channel.loss_rates(dict.fromkeys(ids)) == rates
        # WKA clamps after the channel reports.
        weighed = WkaBkrProtocol()._weight_rates(ids, channel)
        assert weighed == {rid: min(rate, 0.9) for rid, rate in rates.items()}
        assert weighed["high"] == weighed["subclass"] == 0.9


@dataclass
class _ScannedBlock:
    """Oracle block state: satisfaction recomputed by scanning."""

    payload_packets: List[KeyPacket]
    parity_sent: int = 0
    # receiver -> number of packets of this block received so far
    received_count: Dict[str, int] = field(default_factory=dict)
    # receiver -> payload key indices of this block still not directly seen
    direct_missing: Dict[str, Set[int]] = field(default_factory=dict)

    @property
    def k(self) -> int:
        return len(self.payload_packets)

    def satisfied(self, receiver_id: str) -> bool:
        missing = self.direct_missing.get(receiver_id)
        if missing is not None and not missing:
            return True
        return self.received_count.get(receiver_id, 0) >= self.k

    def pending_receivers(self) -> List[str]:
        return [rid for rid in self.direct_missing if not self.satisfied(rid)]


class PerBlockScanFec(ProactiveFecProtocol):
    """Oracle: the FEC round loop as it was before the round engine.

    Interest is registered by scanning every block for every receiver,
    and who is pending — for ``late``, the parity deficit, ``completed``,
    abandonment and termination — is recomputed from every
    ``direct_missing`` each time it is asked.  Slow, but obviously right.
    One marked line differs from that loop: when the last pending
    receivers had departed it went on to count (and back off for) a round
    that sent nothing, which the engine's one idle rule ended.
    """

    def run(self, task, channel):
        result = TransportResult()
        payload = pack_indices(range(len(task.keys)), self.keys_per_packet)
        blocks: List[_ScannedBlock] = []
        for offset in range(0, len(payload), self.block_size):
            block_id = len(blocks)
            block_packets = [
                KeyPacket(p.seqno, p.key_indices, block=block_id)
                for p in payload[offset : offset + self.block_size]
            ]
            blocks.append(_ScannedBlock(payload_packets=block_packets))

        for rid, wanted in interest_of(task.audiences).items():
            for block in blocks:
                in_block = {
                    i
                    for p in block.payload_packets
                    for i in p.key_indices
                    if i in wanted
                }
                if in_block:
                    block.direct_missing[rid] = in_block
                    block.received_count[rid] = 0

        interested_blocks = [b for b in blocks if b.direct_missing]
        if not interested_blocks:
            result.satisfied = True
            return result

        seqno = len(payload)
        round_cap = self.retry.max_rounds if self.retry is not None else self.max_rounds
        for round_index in range(round_cap):
            for block in blocks:
                for rid in [r for r in block.direct_missing if r not in channel]:
                    del block.direct_missing[rid]
                    block.received_count.pop(rid, None)
            if round_index > 0 and not any(b.pending_receivers() for b in blocks):
                break  # fix: a round with nothing to send was still counted
            if self.retry is not None:
                result.elapsed += self.retry.delay_before_round(round_index)
            if round_index > 0:
                for block in blocks:
                    result.late.update(block.pending_receivers())
            packets_this_round = 0
            keys_this_round = 0
            parity_this_round = 0
            for block_id, block in enumerate(blocks):
                pending = block.pending_receivers()
                if round_index > 0 and not pending:
                    continue
                if round_index == 0:
                    sends: List[KeyPacket] = list(block.payload_packets)
                    parity_count = (
                        math.ceil((self.proactivity - 1.0) * block.k)
                        if block.direct_missing
                        else 0
                    )
                else:
                    sends = []
                    parity_count = max(
                        block.k - block.received_count.get(rid, 0) for rid in pending
                    )
                for __ in range(parity_count):
                    sends.append(
                        KeyPacket(
                            seqno=seqno, key_indices=(), block=block_id, is_parity=True
                        )
                    )
                    seqno += 1
                audience = set(block.direct_missing)
                for packet in sends:
                    packets_this_round += 1
                    keys_this_round += (
                        self.keys_per_packet if packet.is_parity else packet.key_count
                    )
                    if packet.is_parity:
                        parity_this_round += 1
                    report = channel.multicast(packet, audience=audience)
                    for rid in report.delivered_to:
                        block.received_count[rid] = block.received_count.get(rid, 0) + 1
                        if not packet.is_parity:
                            block.direct_missing[rid] -= set(packet.key_indices)
            pending_now = {rid for b in blocks for rid in b.pending_receivers()}
            for block in blocks:
                for rid in block.direct_missing:
                    if rid not in pending_now and rid not in result.completed:
                        result.completed[rid] = result.elapsed
            result.merge_round(
                packets=packets_this_round,
                keys=keys_this_round,
                parity=parity_this_round,
            )
            if self.retry is not None and self.retry.should_abandon(round_index + 1):
                for block in blocks:
                    for rid in block.pending_receivers():
                        result.abandoned.add(rid)
                        del block.direct_missing[rid]
                        block.received_count.pop(rid, None)
            if all(not b.pending_receivers() for b in blocks):
                result.satisfied = True
                return result
        pending = {rid for b in blocks for rid in b.pending_receivers()}
        if pending:
            raise TransportExhausted("oracle exhausted", result, pending)
        result.satisfied = True
        return result


class PerPacketScanMultiSend(MultiSendProtocol):
    """Oracle: the multi-send loop as it was before the round engine.

    Every packet's audience is found by scanning every outstanding
    receiver.  Two lines differ from that loop, both marked: it records
    ``late`` and raises the typed exhaustion at the round cap — the two
    things the engine fixed — so the comparison below covers them too.
    """

    def run(self, task, channel):
        result = TransportResult()
        packets = pack_indices(range(len(task.keys)), self.keys_per_packet)
        outstanding = interest_of(task.audiences)
        packet_of_key = {}
        for packet in packets:
            for index in packet.key_indices:
                packet_of_key[index] = packet

        to_send = [p for p in packets for __ in range(self.replication)]
        for round_index in range(self.max_rounds):
            outstanding = {
                rid: wanted for rid, wanted in outstanding.items() if rid in channel
            }
            if round_index > 0 and not outstanding:
                break
            if round_index > 0:
                result.late.update(outstanding)  # fix: was never recorded
            keys_this_round = 0
            for packet in to_send:
                audience = {
                    rid
                    for rid, wanted in outstanding.items()
                    if wanted.intersection(packet.key_indices)
                }
                keys_this_round += packet.key_count
                if not audience:
                    continue
                report = channel.multicast(packet, audience=audience)
                for rid in report.delivered_to:
                    outstanding[rid] -= set(packet.key_indices)
                    if not outstanding[rid]:
                        del outstanding[rid]
                        result.completed[rid] = result.elapsed
            result.merge_round(packets=len(to_send), keys=keys_this_round)
            if not outstanding:
                result.satisfied = True
                return result
            needed_packets = {
                packet_of_key[index].seqno
                for wanted in outstanding.values()
                for index in wanted
            }
            to_send = [p for p in packets if p.seqno in needed_packets]
        if outstanding:  # fix: was a silent ``satisfied=False``
            raise TransportExhausted("oracle exhausted", result, set(outstanding))
        result.satisfied = True
        return result


class PacketLog:
    """Channel mixin: logs every multicast in full and can drop receivers
    mid-delivery — ``unsubscribe_at`` maps a multicast's position in the
    log to the ids leaving just before it (mix in ahead of any channel
    class)."""

    def start_log(self, unsubscribe_at=None):
        self.log = []
        self.unsubscribe_at = dict(unsubscribe_at or {})
        return self

    def multicast(self, packet, audience=None):
        for leaver in self.unsubscribe_at.get(len(self.log), ()):
            self.unsubscribe(leaver)
        self.log.append(
            (packet.seqno, packet.key_indices, packet.block, packet.is_parity,
             frozenset(audience))
        )
        return super().multicast(packet, audience=audience)


class PacketLogChannel(PacketLog, MulticastChannel):
    pass


RESULT_FIELDS = (
    "rounds", "packets_sent", "keys_sent", "parity_packets", "per_round_packets",
    "late", "abandoned", "completed", "elapsed", "satisfied",
)


def run_or_exhaust(protocol, task, channel):
    """``(result, pending)`` of a run, exhausted or not."""
    try:
        return protocol.run(task, channel), frozenset()
    except TransportExhausted as exhausted:
        return exhausted.result, exhausted.pending


def assert_same_result(expected, actual):
    """Two ``(result, pending)`` outcomes agree field for field."""
    (want, want_pending), (got, got_pending) = expected, actual
    for name in RESULT_FIELDS:
        assert getattr(got, name) == getattr(want, name), name
    assert got_pending == want_pending


def assert_same_draws(oracle_channel, channel):
    """Not just equal totals: every receiver's RNG stream stopped at the
    same draw."""
    for counter in ("packets_sent", "receptions", "losses"):
        assert getattr(channel, counter) == getattr(oracle_channel, counter), counter
    assert sorted(channel.subscribers()) == sorted(oracle_channel.subscribers())
    for rid in channel.subscribers():
        assert (
            channel.stream_of(rid).getstate()
            == oracle_channel.stream_of(rid).getstate()
        ), rid


def assert_same_delivery(expected, actual):
    """Two ``(result, pending, channel)`` outcomes made the same multicasts
    to the same audiences and left every receiver at the same draw."""
    assert_same_result(expected[:2], actual[:2])
    assert actual[2].log == expected[2].log
    assert_same_draws(expected[2], actual[2])


FEC = dict(keys_per_packet=4, block_size=3, proactivity=1.25)
MULTI = dict(keys_per_packet=8, replication=1)


@pytest.mark.parametrize(
    "oracle, production, settings",
    [
        (PerBlockScanFec, ProactiveFecProtocol, FEC),
        (PerPacketScanMultiSend, MultiSendProtocol, MULTI),
    ],
    ids=["proactive-fec", "multi-send"],
)
class TestRoundEngineEquivalence:
    """FEC and multi-send on the round engine against their old loops,
    over the WKA battery's seeded real rekey payloads."""

    RECEIVERS = 340
    lossy_task = TestWkaBkrAudienceIndexEquivalence.lossy_task

    def run_both(
        self, oracle, production, settings, seed,
        rates_override=None, unsubscribe_at=None, **protocol,
    ):
        outcomes = []
        for cls in (oracle, production):
            task, rates = self.lossy_task(seed)
            rates.update(rates_override or {})
            channel = PacketLogChannel(seed + 100).start_log(unsubscribe_at)
            for rid, rate in rates.items():
                channel.subscribe(rid, BernoulliLoss(rate))
            result, pending = run_or_exhaust(
                cls(**settings, **protocol), task, channel
            )
            outcomes.append((result, pending, channel))
        return outcomes

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_two_point_loss(self, oracle, production, settings, seed):
        outcomes = self.run_both(oracle, production, settings, seed)
        result, __, channel = outcomes[1]
        assert result.satisfied and len(result.completed) >= 300
        assert result.late  # somebody needed a NACK round
        if production is ProactiveFecProtocol:
            assert len({block for __, __, block, __, __ in channel.log}) >= 4
            retransmitted = channel.log[result.per_round_packets[0] :]
            assert retransmitted and all(parity for *__, parity, __ in retransmitted)
        assert_same_delivery(*outcomes)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_receiver_unsubscribed_mid_delivery(
        self, oracle, production, settings, seed
    ):
        task, __ = self.lossy_task(seed)
        # The two receivers needing the most keys; at 99.9% loss they are
        # still pending (and drawn for) when they leave, one inside the
        # first round and one inside the third.  In between a score of
        # others leave, most of them satisfied by then but still tracked.
        interest = interest_of(task.audiences)
        leavers = sorted(interest, key=lambda r: (-len(interest[r]), r))[:2]
        bystanders = [rid for rid in sorted(interest) if rid not in leavers][:20]
        hopeless = {rid: 0.999 for rid in leavers}
        dry_run = self.run_both(
            oracle, production, settings, seed, rates_override=hopeless, max_rounds=2
        )
        first, second = dry_run[1][0].per_round_packets
        outcomes = self.run_both(
            oracle, production, settings, seed,
            rates_override=hopeless,
            unsubscribe_at={
                2: leavers[:1], first + 1: bystanders, first + second + 1: leavers[1:],
            },
        )
        result, __, channel = outcomes[1]
        gone = set(leavers) | set(bystanders)
        assert not gone & set(channel.subscribers())
        assert not set(leavers) & set(result.completed)
        assert set(bystanders) & set(result.completed)
        assert leavers[1] in result.late and result.rounds >= 3
        assert_same_delivery(*outcomes)

    @pytest.mark.parametrize("seed", [6, 7])
    def test_hopeless_receivers(self, oracle, production, settings, seed):
        """FEC hands them to its retry policy's abandonment; multi-send
        has no policy and must exhaust its round cap, typed."""
        task, __ = self.lossy_task(seed)
        hopeless = sorted(interest_of(task.audiences))[:3]
        if production is ProactiveFecProtocol:
            policy = RetryPolicy(max_rounds=6, base_delay=0.5, abandon_after=3)
            bound = dict(retry=policy)
        else:
            bound = dict(max_rounds=4)
        outcomes = self.run_both(
            oracle, production, settings, seed,
            rates_override={rid: 0.999 for rid in hopeless}, **bound,
        )
        result, pending, __ = outcomes[1]
        if production is ProactiveFecProtocol:
            assert set(hopeless) <= result.abandoned and result.satisfied
            assert result.elapsed == policy.total_delay(result.rounds)
        else:
            assert set(hopeless) <= pending and not result.satisfied
            assert result.rounds == 4 and set(hopeless) <= result.late
        assert_same_delivery(*outcomes)


class TestFecShapesAgainstTheScan:
    """FEC block shapes the fixed ``FEC`` settings miss, each against
    :class:`PerBlockScanFec`: one-packet blocks (k = 1), a short last
    block, no and double proactive parity, a receiver wanting a key in
    every payload packet of its block, and a spoiled receiver (one that
    missed a payload packet it wants) departing mid-round."""

    lossy_task = TestWkaBkrAudienceIndexEquivalence.lossy_task
    RECEIVERS = TestRoundEngineEquivalence.RECEIVERS

    @staticmethod
    def run_both(make, settings, unsubscribe_at=None, seed=77, **protocol):
        """``make()`` -> ``(task, rates)``, called afresh for each side."""
        outcomes = []
        for cls in (PerBlockScanFec, ProactiveFecProtocol):
            task, rates = make()
            channel = PacketLogChannel(seed).start_log(unsubscribe_at)
            for rid, rate in rates.items():
                channel.subscribe(rid, BernoulliLoss(rate))
            result, pending = run_or_exhaust(cls(**settings, **protocol), task, channel)
            outcomes.append((result, pending, channel))
        assert_same_delivery(*outcomes)
        return outcomes[1]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_one_packet_blocks(self, seed):
        settings = dict(keys_per_packet=4, block_size=1, proactivity=1.25)
        result, __, channel = self.run_both(lambda: self.lossy_task(seed), settings)
        assert result.satisfied and result.late and result.parity_packets
        assert max(block for __, __, block, __, __ in channel.log) >= 20

    @pytest.mark.parametrize("seed", [3, 4])
    def test_short_last_block(self, seed):
        task, __ = self.lossy_task(seed)
        packets = math.ceil(len(task.keys) / 4)
        block_size = next(size for size in range(5, 12) if packets % size)
        settings = dict(keys_per_packet=4, block_size=block_size, proactivity=1.25)
        result, __, channel = self.run_both(lambda: self.lossy_task(seed), settings)
        last = packets // block_size
        assert result.satisfied
        assert any(block == last for __, __, block, __, __ in channel.log)

    @pytest.mark.parametrize("proactivity", [1.0, 2.0])
    @pytest.mark.parametrize("seed", [5, 6])
    def test_proactivity(self, seed, proactivity):
        settings = dict(keys_per_packet=4, block_size=3, proactivity=proactivity)
        result, __, __ = self.run_both(lambda: self.lossy_task(seed), settings)
        assert result.satisfied and len(result.completed) >= 300

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_receiver_wanting_every_packet_of_its_block(self, seed):
        import random

        def make():
            rng = random.Random(seed)
            # 8 keys a packet, 4 packets a block: 96 keys in 3 blocks.
            interest = {"every": {0, 9, 18, 27}, "whole": set(range(96))}
            for i in range(30):
                interest[f"r{i}"] = set(rng.sample(range(96), rng.randint(1, 6)))
            rates = {rid: rng.choice([0.05, 0.2, 0.4]) for rid in interest}
            return task_of([None] * 96, interest), rates

        settings = dict(keys_per_packet=8, block_size=4, proactivity=1.25)
        result, pending, __ = self.run_both(make, settings, seed=seed)
        assert result.satisfied and not pending
        assert {"every", "whole"} <= set(result.completed)

    @pytest.mark.parametrize("round_index", [0, 1])
    @pytest.mark.parametrize("seed", [10, 11])
    def test_spoiled_receiver_departs_mid_round(self, seed, round_index):
        task, __ = self.lossy_task(seed)
        # Needs the most keys and loses nearly everything: spoiled at its
        # first wanted payload packet, still pending when it leaves.
        interest = interest_of(task.audiences)
        leaver = min(interest, key=lambda r: (-len(interest[r]), r))

        def make():
            task, rates = self.lossy_task(seed)
            rates[leaver] = 0.999
            return task, rates

        settings = dict(keys_per_packet=4, block_size=3, proactivity=1.25)
        dry, __, __ = self.run_both(make, settings, max_rounds=2)
        at = sum(dry.per_round_packets[:round_index]) + 3
        result, __, channel = self.run_both(make, settings, unsubscribe_at={at: [leaver]})
        assert leaver not in channel.subscribers()
        assert leaver not in result.completed and result.satisfied
        # Dropped before a NACK round counts it late, if it left in round 0.
        assert (leaver in result.late) == (round_index == 1)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_small_shapes(self, data):
        keys = data.draw(st.integers(1, 30), label="keys")
        settings = dict(
            keys_per_packet=data.draw(st.integers(1, 5), label="keys_per_packet"),
            block_size=data.draw(st.integers(1, 5), label="block_size"),
            proactivity=data.draw(
                st.sampled_from([1.0, 1.25, 1.5, 2.0]), label="proactivity"
            ),
        )
        interest = {
            f"r{i}": data.draw(st.sets(st.integers(0, keys - 1), max_size=6))
            for i in range(data.draw(st.integers(1, 8), label="receivers"))
        }
        rates = {
            rid: data.draw(st.sampled_from([0.0, 0.1, 0.3, 0.6])) for rid in interest
        }
        leaving = data.draw(
            st.dictionaries(
                st.integers(0, 30), st.sampled_from(sorted(interest)), max_size=2
            ),
            label="leaving",
        )

        def make():
            task = task_of([None] * keys, interest)
            return task, dict(rates)

        self.run_both(
            make, settings, unsubscribe_at={at: [rid] for at, rid in leaving.items()}
        )


class TestMalformedInterest:
    """An index outside the payload is rejected up front, the same way by
    every transport: a ``ValueError`` naming the receiver and the index."""

    @pytest.mark.parametrize(
        "protocol",
        [
            WkaBkrProtocol(keys_per_packet=2),
            MultiSendProtocol(keys_per_packet=2),
            ProactiveFecProtocol(keys_per_packet=2, block_size=2),
        ],
        ids=lambda p: p.name,
    )
    @pytest.mark.parametrize(
        "interest, receiver, index",
        [
            ({"a": {1, 7}, "b": {2}}, "a", 7),
            ({"a": {1}, "b": {-1}}, "b", -1),
            # the lowest out-of-range index, then the first receiver by id
            ({"b": {1, 7}, "a": {-1, 9}, "c": {-1}}, "a", -1),
        ],
    )
    def test_rejected_naming_receiver_and_index(
        self, protocol, interest, receiver, index
    ):
        channel = make_channel({rid: 0.0 for rid in interest})
        with pytest.raises(ValueError, match=f"'{receiver}'.* {index},"):
            protocol.run(task_of([None] * 4, interest), channel)
        assert channel.packets_sent == 0


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
        # 8 keys / 4 per packet = 2 payload packets = 1 block of 2, which
        # gets ceil(0.5 * 2) = 1 proactive parity packet.
        assert result.parity_packets == 1
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


class PrepareCountingChannel(PacketLogChannel):
    """Records every audience the channel prepared, and the block and
    audience of every multicast."""

    def start_log(self, unsubscribe_at=None):
        self.prepared = []
        self.sent_to = []
        return super().start_log(unsubscribe_at)

    def prepare(self, audience):
        prepared = super().prepare(audience)
        self.prepared.append(prepared)
        return prepared

    def multicast(self, packet, audience=None):
        self.sent_to.append((packet.block, audience))
        return super().multicast(packet, audience=audience)


class TestFecPreparesEachBlockOnce:
    """A block's audience is resolved once per delivery, and again only
    after one of its trackers departs."""

    def deliver(self, seed, unsubscribe_at=None, hopeless=()):
        task, rates = TestWkaBkrAudienceIndexEquivalence().lossy_task(seed)
        rates.update({rid: 0.999 for rid in hopeless})
        channel = PrepareCountingChannel(seed + 100).start_log(unsubscribe_at)
        for rid, rate in rates.items():
            channel.subscribe(rid, BernoulliLoss(rate))
        result = ProactiveFecProtocol(**FEC).run(task, channel)
        audiences = {}  # block -> its distinct audiences, in send order
        for index, (block, audience) in enumerate(channel.sent_to):
            seen = audiences.setdefault(block, [])
            if not any(audience is known for __, known in seen):
                seen.append((index, audience))
        return task, result, channel, audiences

    @pytest.mark.parametrize("seed", [1, 2])
    def test_once_per_block(self, seed):
        __, result, channel, audiences = self.deliver(seed)
        assert result.rounds >= 2 and len(audiences) >= 4
        assert all(len(seen) == 1 for seen in audiences.values())
        assert len(channel.prepared) == len(audiences)
        assert {id(a) for a in channel.prepared} == {
            id(seen[0][1]) for seen in audiences.values()
        }

    @pytest.mark.parametrize("seed", [3, 4])
    def test_again_after_a_tracker_departs(self, seed):
        task, __ = TestWkaBkrAudienceIndexEquivalence().lossy_task(seed)
        # Needs the most keys and loses nearly everything: still pending on
        # every block it tracks when it leaves inside the first round.
        interest = interest_of(task.audiences)
        leaver = min(interest, key=lambda r: (-len(interest[r]), r))
        __, result, channel, audiences = self.deliver(
            seed, unsubscribe_at={2: [leaver]}, hopeless=[leaver]
        )
        first_round = result.per_round_packets[0]
        again = 0
        for block, seen in audiences.items():
            sent_later = any(b == block for b, __ in channel.sent_to[first_round:])
            if leaver in seen[0][1] and sent_later:
                # Re-prepared at the block's first packet after the drop.
                assert len(seen) == 2 and seen[1][0] >= first_round
                assert leaver not in seen[1][1]
                again += 1
            else:
                assert len(seen) == 1
        assert again >= 1
        assert len(channel.prepared) == len(audiences) + again


class TestTransportsLeaveTheirTaskAlone:
    """A transport reads its task's audiences and never writes them: the
    same set objects, with the same contents, after ``run``, through
    departures, abandonment and exhaustion."""

    @staticmethod
    def protocol(name, scenario):
        if scenario == "abandon" and name != "multi-send":
            policy = RetryPolicy(max_rounds=6, base_delay=0.5, abandon_after=3)
            bound = dict(retry=policy)
        else:
            # Multi-send takes no policy: its hopeless receivers exhaust it.
            bound = dict(max_rounds=3 if scenario == "abandon" else 50)
        if name == "wka-bkr":
            return WkaBkrProtocol(keys_per_packet=8, **bound)
        if name == "multi-send":
            return MultiSendProtocol(**MULTI, **bound)
        return ProactiveFecProtocol(**FEC, **bound)

    @pytest.mark.parametrize("scenario", ["plain", "departure", "abandon"])
    @pytest.mark.parametrize("name", ["wka-bkr", "multi-send", "proactive-fec"])
    def test_interest_untouched(self, name, scenario):
        task, rates = TestWkaBkrAudienceIndexEquivalence().lossy_task(11)
        hopeless = sorted(interest_of(task.audiences))[:3]
        if scenario != "plain":
            rates.update({rid: 0.999 for rid in hopeless})
        channel = PacketLogChannel(111).start_log(
            {2: hopeless[:1], 40: hopeless[1:]} if scenario == "departure" else None
        )
        for rid, rate in rates.items():
            channel.subscribe(rid, BernoulliLoss(rate))
        audiences = task.audiences
        before = {row: (named, frozenset(named)) for row, named in audiences.items()}
        result, pending = run_or_exhaust(self.protocol(name, scenario), task, channel)
        assert task.audiences is audiences and audiences.keys() == before.keys()
        for row, (named, contents) in before.items():
            assert audiences[row] is named and named == contents, row
        if scenario == "departure":
            assert result.satisfied and not set(hopeless) & set(result.completed)
            assert not set(hopeless) & set(channel.subscribers())
        elif scenario == "abandon":
            assert set(hopeless) <= result.abandoned | pending
        else:
            assert result.satisfied and len(result.completed) == len(
                set().union(*audiences.values())
            )
