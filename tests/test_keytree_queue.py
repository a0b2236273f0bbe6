"""Unit tests for the QT-scheme's queue partition."""

import pytest

from repro.crypto.material import KeyGenerator
from repro.crypto.wrap import unwrap_key
from repro.keytree.queuepartition import QueuePartition
from repro.obs import metrics as obs_metrics


@pytest.fixture
def queue():
    return QueuePartition(keygen=KeyGenerator(3), name="q")


class TestMembership:
    def test_starts_empty(self, queue):
        assert queue.size == 0
        assert queue.members() == []

    def test_add_returns_individual_key(self, queue):
        key = queue.add_member("a")
        assert key.key_id == "member:a"
        assert queue.key_of("a") == key
        assert "a" in queue

    def test_add_accepts_existing_key(self, queue):
        external = KeyGenerator(77).generate("member:b")
        queue.add_member("b", external)
        assert queue.key_of("b") is external

    def test_duplicate_add_rejected(self, queue):
        queue.add_member("a")
        with pytest.raises(ValueError):
            queue.add_member("a")

    def test_remove_returns_key(self, queue):
        key = queue.add_member("a")
        assert queue.remove_member("a") == key
        assert queue.size == 0

    def test_remove_unknown_raises(self, queue):
        with pytest.raises(KeyError):
            queue.remove_member("ghost")

    def test_key_of_unknown_raises(self, queue):
        with pytest.raises(KeyError):
            queue.key_of("ghost")


class TestWrapping:
    def test_wrap_for_all_costs_queue_size(self, queue):
        for i in range(7):
            queue.add_member(f"m{i}")
        payload = KeyGenerator(9).generate("group/dek")
        with obs_metrics.collecting() as registry:
            wraps = queue.wrap_dek(payload)
        assert len(wraps) == 7  # the Neq = Ns term
        assert registry.counter_total("crypto.wraps") == 7

    def test_each_member_can_unwrap_its_copy(self, queue):
        keys = {f"m{i}": queue.add_member(f"m{i}") for i in range(5)}
        payload = KeyGenerator(9).generate("group/dek")
        wraps = {ek.wrapping_id: ek for ek in queue.wrap_dek(payload)}
        for member_id, key in keys.items():
            recovered = unwrap_key(key, wraps[key.key_id])
            assert recovered == payload

    def test_wrap_for_single_member(self, queue):
        key = queue.add_member("a")
        payload = KeyGenerator(9).generate("group/dek")
        queue.add_member("b")
        wraps = queue.wrap_dek(payload, joiners=["a"])
        assert len(wraps) == 1
        assert unwrap_key(key, wraps[0]) == payload
