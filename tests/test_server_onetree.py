"""Unit tests for the one-keytree baseline server."""

import pytest

from repro.members.member import Member
from repro.server.onetree import OneTreeServer


def admit(server, ids, now=0.0):
    members = {}
    for member_id in ids:
        reg = server.join(member_id, at_time=now)
        members[member_id] = Member(member_id, reg.individual_key)
    result = server.rekey(now=now)
    for member in members.values():
        member.absorb(result.encrypted_keys)
    return members, result


class TestOneTreeServer:
    def test_group_key_is_tree_root(self):
        server = OneTreeServer()
        # By value: the tree keeps no key objects, it builds one per read.
        assert server.group_key() == server.tree.root.key
        assert server.group_key_id == server.tree.root.key.key_id

    def test_join_batch_distributes_group_key(self):
        server = OneTreeServer()
        members, result = admit(server, [f"m{i}" for i in range(20)])
        dek = server.group_key()
        for member in members.values():
            assert member.holds(dek.key_id, dek.version)
        assert result.breakdown == {"tree": result.cost}

    def test_departure_rolls_group_key_forward(self):
        server = OneTreeServer()
        members, __ = admit(server, [f"m{i}" for i in range(8)])
        old_dek = server.group_key()
        server.leave("m2", at_time=60.0)
        evicted = members.pop("m2")
        result = server.rekey(now=60.0)
        new_dek = server.group_key()
        assert new_dek.version == old_dek.version + 1
        evicted.absorb(result.encrypted_keys)
        assert not evicted.holds(new_dek.key_id, new_dek.version)
        for member in members.values():
            member.absorb(result.encrypted_keys)
            assert member.holds(new_dek.key_id, new_dek.version)

    def test_empty_rekey_is_free(self):
        server = OneTreeServer()
        admit(server, ["a"])
        result = server.rekey()
        assert result.cost == 0

    def test_batch_cost_close_to_model(self):
        """A real batch on a freshly built tree tracks Appendix A."""
        from repro.analysis.batchcost import expected_batch_cost

        server = OneTreeServer(degree=4)
        admit(server, [f"m{i}" for i in range(256)])
        for i in range(16):
            server.leave(f"m{i}")
        for i in range(16):
            server.join(f"j{i}")
        result = server.rekey()
        predicted = expected_batch_cost(256, 16, 4)
        assert result.cost == pytest.approx(predicted, rel=0.30)
