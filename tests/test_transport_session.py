"""Unit tests for transport tasks and interest derivation."""

from repro.testing.lkh import LkhRekeyer
from repro.testing.oracle import build_task
from repro.testing.tree import KeyTree
from repro.transport.session import TransportResult, TransportTask

from tests.helpers import populate


class TestTransportTask:
    def test_audiences_inverts_interest(self):
        # Transports read only the payload's length.
        keys = [None, None]
        task = TransportTask(keys=keys, interest={"a": {0, 1}, "b": {1}})
        audiences = task.audiences()
        assert audiences == {0: {"a"}, 1: {"a", "b"}}
        task = TransportTask(keys=keys, interest={"a": {0}, "b": {0, 1}, "c": set()})
        audiences = task.audiences()
        assert audiences[0] == {"a", "b"}
        assert audiences[1] == {"b"}
        # A key nobody wants has no entry, not an empty audience.
        assert 9 not in audiences and set(audiences) == {0, 1}


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
        for member_id, wanted in task.interest.items():
            assert wanted, member_id
        # A member co-located with the departure needs more keys than a
        # member in an untouched subtree needs (path overlap).
        sizes = {m: len(w) for m, w in task.interest.items()}
        assert max(sizes.values()) > min(sizes.values())

    def test_interest_empty_for_unrelated_holder(self, keygen):
        tree = KeyTree(degree=4, keygen=keygen)
        rekeyer = LkhRekeyer(tree)
        populate(rekeyer, 8)
        message = rekeyer.rekey_batch(departures=["m0"])
        task = build_task(message, {"stranger": {"member:stranger": 0}})
        assert task.interest["stranger"] == set()

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
        assert all(len(w) < total for w in task.interest.values())
