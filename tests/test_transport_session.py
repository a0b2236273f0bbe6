"""Unit tests for transport tasks, interest derivation and the round
engine's settlement contract."""

import random
from collections import Counter, defaultdict

import pytest

from repro.network.channel import MulticastChannel
from repro.network.loss import BernoulliLoss
from repro.testing.lkh import LkhRekeyer
from repro.testing.oracle import audiences_of, build_task
from repro.testing.tree import KeyTree
from repro.transport.fec import ProactiveFecProtocol, _FecState
from repro.transport.multisend import MultiSendProtocol, _MultiSendState
from repro.transport.packets import KeyPacket, pack_indices
from repro.transport.session import (
    KeyInterestState,
    TransportExhausted,
    TransportResult,
    TransportTask,
    run_rounds,
)
from repro.transport.wka_bkr import WkaBkrProtocol, _WkaBkrState

from tests.helpers import interest_of, populate, task_of


class TestTransportTask:
    def test_audiences_inverts_interest(self):
        audiences = audiences_of({"a": {0, 1}, "b": {1}})
        assert audiences == {0: {"a"}, 1: {"a", "b"}}
        audiences = audiences_of({"a": {0}, "b": {0, 1}, "c": set()})
        assert audiences[0] == {"a", "b"}
        assert audiences[1] == {"b"}
        # A key nobody wants has no entry, not an empty audience.
        assert 9 not in audiences and set(audiences) == {0, 1}
        # Transports read only the payload's length.
        task = TransportTask(keys=[None, None], audiences=audiences)
        assert task.audiences is audiences

    @pytest.mark.parametrize(
        "audiences, receiver, index",
        [
            ({1: {"a"}, 7: {"a"}, 2: {"b"}}, "a", 7),
            ({1: {"a"}, -1: {"b"}}, "b", -1),
            # the lowest out-of-range index, then the first receiver by id
            ({1: {"b"}, 7: {"b"}, -1: {"c", "a"}, 9: {"a"}}, "a", -1),
        ],
    )
    def test_refuses_a_row_outside_the_payload(self, audiences, receiver, index):
        with pytest.raises(ValueError, match=f"'{receiver}'.* {index},"):
            TransportTask(keys=[None] * 4, audiences=audiences)


class TestTransportResult:
    def test_merge_round_accumulates(self):
        result = TransportResult()
        result.merge_round(packets=3, keys=12)
        result.merge_round(packets=1, keys=4, parity=1)
        assert result.rounds == 2
        assert result.packets_sent == 4
        assert result.keys_sent == 16
        assert result.parity_packets == 1
        assert result.per_round_packets == [3, 1]


class TestBuildTask:
    def test_interest_follows_fresh_key_chains(self, keygen):
        tree = KeyTree(degree=4, keygen=keygen)
        rekeyer = LkhRekeyer(tree)
        populate(rekeyer, 16)
        held = {
            m: {n.key.key_id: n.key.version for n in tree.path_of(m)}
            for m in tree.members()
        }
        message = rekeyer.rekey_batch(departures=["m3"])
        task = build_task(message, {m: held[m] for m in tree.members()})
        # Every survivor needs at least the fresh root key.
        interest = interest_of(task.audiences)
        assert interest.keys() == set(tree.members())
        # A member co-located with the departure needs more keys than a
        # member in an untouched subtree needs (path overlap).
        sizes = {m: len(w) for m, w in interest.items()}
        assert max(sizes.values()) > min(sizes.values())

    def test_interest_empty_for_unrelated_holder(self, keygen):
        tree = KeyTree(degree=4, keygen=keygen)
        rekeyer = LkhRekeyer(tree)
        populate(rekeyer, 8)
        message = rekeyer.rekey_batch(departures=["m0"])
        task = build_task(message, {"stranger": {"member:stranger": 0}})
        assert task.audiences == {}

    def test_sparseness_property(self, keygen):
        """No member is interested in every key of a batch touching two
        disjoint subtrees (each only needs its own path's share)."""
        tree = KeyTree(degree=2, keygen=keygen)
        rekeyer = LkhRekeyer(tree)
        populate(rekeyer, 32)
        held = {
            m: {n.key.key_id: n.key.version for n in tree.path_of(m)}
            for m in tree.members()
        }
        message = rekeyer.rekey_batch(departures=["m0", "m31"])
        task = build_task(message, held)
        total = len(message.encrypted_keys)
        assert all(len(w) < total for w in interest_of(task.audiences).values())


class RoundLogChannel(MulticastChannel):
    """Logs every multicast with the round it went out in (the number of
    rounds settled so far) and can drop receivers mid-delivery:
    ``unsubscribe_at`` maps a multicast's position to the ids leaving
    just before it."""

    def __init__(self, seed, settled, unsubscribe_at=None):
        super().__init__(seed=seed)
        self.settled = settled
        self.unsubscribe_at = dict(unsubscribe_at or {})
        self.log = []

    def multicast(self, packet, audience=None):
        for leaver in self.unsubscribe_at.get(len(self.log), ()):
            self.unsubscribe(leaver)
        report = super().multicast(packet, audience=audience)
        self.log.append((len(self.settled), packet, set(report.delivered_to)))
        return report


def recording_settle(state, settled):
    """Append what every ``state.settle()`` call returns to ``settled``."""
    settle = state.settle

    def logged():
        got = settle()
        settled.append(set(got))
        return got

    state.settle = logged
    return state


def met_rounds_by_keys(task, log):
    """Oracle for the key-interest transports: the round in which each
    receiver has received every key it wants."""
    missing = interest_of(task.audiences)
    met = {}
    for round_index, packet, delivered in log:
        for rid in delivered:
            missing[rid] -= set(packet.key_indices)
            if not missing[rid] and rid not in met:
                met[rid] = round_index
    return met


def met_rounds_by_blocks(task, log, keys_per_packet, block_size):
    """Oracle for proactive FEC: a receiver is done with a block once it
    has every payload packet of it that carries a key it wants, or any
    ``k`` of the block's packets; done with the delivery once done with
    every block it tracks."""
    payload = pack_indices(range(len(task.keys)), keys_per_packet)
    block_of = {p.seqno: position // block_size for position, p in enumerate(payload)}
    k = Counter(block_of.values())
    wants = defaultdict(dict)  # rid -> block -> wanted payload seqnos
    interest = interest_of(task.audiences)
    for packet in payload:
        for rid, wanted in interest.items():
            if set(packet.key_indices) & set(wanted):
                wants[rid].setdefault(block_of[packet.seqno], set()).add(packet.seqno)
    received = Counter()
    direct = defaultdict(set)
    done = set()
    met = {}
    for round_index, packet, delivered in log:
        block = packet.block
        for rid in delivered:
            if block not in wants[rid]:
                continue
            received[rid, block] += 1
            if not packet.is_parity:
                direct[rid, block].add(packet.seqno)
            if received[rid, block] >= k[block] or wants[rid][block] <= direct[rid, block]:
                done.add((rid, block))
            if rid not in met and all((rid, b) in done for b in wants[rid]):
                met[rid] = round_index
    return met


def random_task(seed, receivers=60, keys=40):
    rng = random.Random(seed)
    interest = {
        f"r{i}": set(rng.sample(range(keys), rng.randint(1, 6)))
        for i in range(receivers)
    }
    interest["idle"] = set()
    rates = {rid: rng.choice([0.02, 0.2, 0.5]) for rid in interest}
    return task_of([None] * keys, interest), rates


WKA = WkaBkrProtocol(keys_per_packet=4)
MULTI = MultiSendProtocol(keys_per_packet=4, replication=1)
FEC = ProactiveFecProtocol(keys_per_packet=4, block_size=3, proactivity=1.25)

STATES = {
    "wka-bkr": (lambda task, channel: _WkaBkrState(WKA, task, channel), met_rounds_by_keys),
    "multi-send": (lambda task, channel: _MultiSendState(MULTI, task), met_rounds_by_keys),
    "proactive-fec": (
        lambda task, channel: _FecState(FEC, task, channel),
        lambda task, log: met_rounds_by_blocks(task, log, 4, 3),
    ),
}


class TestSettlementContract:
    """``RoundState.settle()`` returns each satisfied receiver exactly once,
    in the round that met its interest, and the engine stamps exactly
    those receivers into ``completed``."""

    @staticmethod
    def deliver(name, seed, unsubscribe_at=None, rates_override=None):
        make_state, oracle = STATES[name]
        task, rates = random_task(seed)
        rates.update(rates_override or {})
        settled = []
        channel = RoundLogChannel(seed, settled, unsubscribe_at)
        for rid, rate in rates.items():
            channel.subscribe(rid, BernoulliLoss(rate))
        state = recording_settle(make_state(task, channel), settled)
        try:
            result = run_rounds(name, state, channel, max_rounds=12)
        except TransportExhausted as exhausted:
            result = exhausted.result
        return task, result, settled, oracle(task, channel.log)

    @staticmethod
    def assert_settled_once_when_met(result, settled, met):
        # One settlement per round the engine ran.
        assert len(settled) == result.rounds
        flat = [rid for got in settled for rid in got]
        assert len(flat) == len(set(flat))
        for round_index, got in enumerate(settled):
            assert got == {rid for rid, r in met.items() if r == round_index}
        assert set(result.completed) == set(flat)

    @pytest.mark.parametrize("name", sorted(STATES))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_each_receiver_settles_once_in_its_round(self, name, seed):
        task, result, settled, met = self.deliver(name, seed)
        assert result.rounds >= 2 and result.late
        assert "idle" not in met and set(met) == {
            rid for rid, wanted in interest_of(task.audiences).items() if wanted
        }
        self.assert_settled_once_when_met(result, settled, met)

    @pytest.mark.parametrize("name", sorted(STATES))
    @pytest.mark.parametrize("seed", [4, 5])
    def test_receiver_dropped_mid_delivery(self, name, seed):
        # Hopeless, so still pending when they leave: one inside round 0,
        # one after it.
        task, rates = random_task(seed)
        leavers = ["r0", "r1"]
        __, result, settled, met = self.deliver(
            name,
            seed,
            unsubscribe_at={2: leavers[:1], 40: leavers[1:]},
            rates_override={rid: 0.999 for rid in leavers},
        )
        assert not set(leavers) & set(met)
        assert not set(leavers) & set().union(*settled)
        self.assert_settled_once_when_met(result, settled, met)

    @pytest.mark.parametrize("name", sorted(STATES))
    def test_a_round_that_satisfies_nobody_settles_nobody(self, name):
        task, result, settled, met = self.deliver(
            name, 6, rates_override={f"r{i}": 0.999 for i in range(60)}
        )
        assert set() in settled
        self.assert_settled_once_when_met(result, settled, met)

    def test_round_with_nobody_to_draw_for(self):
        """Multi-send's round 0 goes out with nobody pending: priced, no
        multicast, and one empty settlement."""
        task = task_of([None] * 5, {"a": set()})
        settled = []
        channel = RoundLogChannel(7, settled)
        channel.subscribe("a", BernoulliLoss(0.2))
        state = recording_settle(_MultiSendState(MULTI, task), settled)
        result = run_rounds(MULTI.name, state, channel)
        assert settled == [set()] and not channel.log
        assert result.rounds == 1 and result.packets_sent == 2

    def test_key_interest_state_by_hand(self):
        task = task_of([None] * 3, {"a": {0, 1}, "b": {1}, "c": {2}, "d": set()})
        state = KeyInterestState(task)
        assert state.pending == {"a", "b", "c"} and state.keys_pending() == 4
        assert state.settle() == set()
        state.deliver(KeyPacket(0, (1,)), {"a", "b", "c"})
        # A delivery shrinks the audiences only; pending waits for settle.
        assert state.pending == {"a", "b", "c"} and state.keys_pending() == 2
        assert state.settle() == {"b"} and state.pending == {"a", "c"}
        state.deliver(KeyPacket(1, (0, 2)), {"a"})
        state.drop("c")
        assert state.settle() == {"a"}
        assert not state.pending and state.keys_pending() == 0
        assert state.settle() == set()
