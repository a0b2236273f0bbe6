"""Unit tests for the shared key-server lifecycle."""

import pytest

from repro.crypto.wrap import EncryptedKey, WrapBatch
from repro.server.base import BatchResult
from repro.server.onetree import OneTreeServer


@pytest.fixture
def server():
    return OneTreeServer(degree=4)


class TestJoinLeaveLifecycle:
    def test_join_returns_registration(self, server):
        reg = server.join("a", at_time=5.0)
        assert reg.member_id == "a"
        assert reg.join_time == 5.0
        assert reg.individual_key.key_id == "member:a"

    def test_joiner_admitted_only_at_rekey(self, server):
        server.join("a")
        assert "a" not in server
        server.rekey()
        assert "a" in server
        assert server.size == 1

    def test_duplicate_join_rejected(self, server):
        server.join("a")
        with pytest.raises(ValueError):
            server.join("a")
        server.rekey()
        with pytest.raises(ValueError):
            server.join("a")

    def test_leave_unknown_rejected(self, server):
        with pytest.raises(KeyError):
            server.leave("ghost")

    def test_double_leave_rejected(self, server):
        server.join("a")
        server.rekey()
        server.leave("a")
        with pytest.raises(ValueError):
            server.leave("a")

    def test_join_then_leave_within_period_vanishes(self, server):
        """A member that never survived to a rekey point gets no keys and
        costs nothing."""
        server.join("flash")
        server.leave("flash")
        result = server.rekey()
        assert result.cost == 0
        assert "flash" not in server
        assert result.joined == []
        assert result.departed == []

    def test_rejoin_after_leave(self, server):
        server.join("a")
        server.rekey()
        server.leave("a")
        server.rekey()
        server.join("a")
        server.rekey()
        assert "a" in server

    def test_epochs_increase(self, server):
        first = server.rekey()
        second = server.rekey()
        assert second.epoch == first.epoch + 1

    def test_members_listing(self, server):
        for m in ("a", "b", "c"):
            server.join(m)
        server.rekey()
        assert sorted(server.members()) == ["a", "b", "c"]


class TestBatchResult:
    def test_extend_tracks_breakdown(self):
        result = BatchResult(epoch=1, time=0.0)
        wrap = EncryptedKey("kek", 0, "dek", 1, b"opaque")
        result.extend("part", [wrap, wrap])
        result.extend("part", WrapBatch([wrap]))
        result.extend("other", [])
        assert result.breakdown == {"part": 3, "other": 0}
        assert result.cost == 3
