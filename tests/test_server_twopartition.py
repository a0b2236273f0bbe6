"""Unit tests for the two-partition servers (QT, TT, PT)."""

import pytest

from repro.members.durations import LONG_CLASS, SHORT_CLASS
from repro.members.member import Member
from repro.server.twopartition import TwoPartitionServer


def admit(server, ids, now=0.0, **attributes):
    members = {}
    for member_id in ids:
        reg = server.join(member_id, at_time=now, **attributes)
        members[member_id] = Member(member_id, reg.individual_key)
    result = server.rekey(now=now)
    for member in members.values():
        member.absorb(result.encrypted_keys)
    return members, result


def deliver(result, members):
    for member in members.values():
        member.absorb(result.encrypted_keys)


class TestConstruction:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            TwoPartitionServer(mode="xx")

    def test_rejects_negative_s_period(self):
        with pytest.raises(ValueError):
            TwoPartitionServer(s_period=-1)

    @pytest.mark.parametrize("mode", ["qt", "tt", "pt"])
    def test_name_reflects_mode(self, mode):
        assert TwoPartitionServer(mode=mode).name == f"{mode}-scheme"


@pytest.mark.parametrize("mode", ["qt", "tt"])
class TestJoinersStartInSPartition:
    def test_new_members_sit_in_s(self, mode):
        server = TwoPartitionServer(mode=mode, s_period=600.0)
        admit(server, [f"m{i}" for i in range(6)])
        assert server.s_size == 6
        assert server.l_size == 0
        assert all(server.in_s_partition(f"m{i}") for i in range(6))

    def test_everyone_gets_group_key(self, mode):
        server = TwoPartitionServer(mode=mode, s_period=600.0)
        members, __ = admit(server, [f"m{i}" for i in range(6)])
        dek = server.group_key()
        for member in members.values():
            assert member.holds(dek.key_id, dek.version), member.member_id


class TestMigration:
    @pytest.mark.parametrize("mode", ["qt", "tt"])
    def test_members_migrate_after_s_period(self, mode):
        server = TwoPartitionServer(mode=mode, s_period=120.0)
        members, __ = admit(server, ["a", "b"], now=0.0)
        # t=60: too early.
        result = server.rekey(now=60.0)
        assert result.migrated == []
        assert server.s_size == 2
        # t=120: residence reached the S-period.
        result = server.rekey(now=120.0)
        assert sorted(result.migrated) == ["a", "b"]
        assert server.s_size == 0
        assert server.l_size == 2
        deliver(result, members)
        dek = server.group_key()
        for member in members.values():
            assert member.holds(dek.key_id, dek.version)

    def test_migration_alone_does_not_roll_group_key(self):
        server = TwoPartitionServer(mode="tt", s_period=60.0)
        __, __ = admit(server, ["a"], now=0.0)
        dek_before = server.group_key()
        result = server.rekey(now=60.0)
        assert result.migrated == ["a"]
        assert server.group_key() == dek_before
        assert "group-key" not in result.breakdown

    def test_migrated_member_cannot_read_future_s_partition_keys(self):
        server = TwoPartitionServer(mode="tt", s_period=60.0)
        members, __ = admit(server, ["old"], now=0.0)
        result = server.rekey(now=60.0)  # old migrates
        deliver(result, members)
        # A fresh cohort joins the S-partition.
        fresh_reg = server.join("fresh", at_time=61.0)
        result = server.rekey(now=120.0)
        deliver(result, members)
        s_root = server.partitions[0].tree.root.key
        assert not members["old"].holds(s_root.key_id, s_root.version)

    def test_pt_never_migrates(self):
        server = TwoPartitionServer(mode="pt")
        server.join("s1", member_class=SHORT_CLASS)
        server.join("l1", member_class=LONG_CLASS)
        server.rekey(now=0.0)
        result = server.rekey(now=1e9)
        assert result.migrated == []


class TestQtScheme:
    def test_departure_costs_one_key_per_queue_resident(self):
        """The Neq = Ns term: each remaining S-member gets its own DEK wrap."""
        server = TwoPartitionServer(mode="qt", s_period=1e9)
        members, __ = admit(server, [f"m{i}" for i in range(10)])
        server.leave("m0", at_time=60.0)
        result = server.rekey(now=60.0)
        assert result.breakdown["group-key"] == 9  # one per survivor
        assert result.breakdown.get("s-partition", 0) == 0

    def test_queue_members_hold_only_two_keys(self):
        server = TwoPartitionServer(mode="qt", s_period=1e9)
        members, __ = admit(server, [f"m{i}" for i in range(5)])
        for member in members.values():
            assert member.key_count() == 2  # individual + DEK

    def test_join_only_batch_is_cheap(self):
        server = TwoPartitionServer(mode="qt", s_period=1e9)
        admit(server, [f"m{i}" for i in range(50)])
        server.join("late")
        result = server.rekey(now=60.0)
        # One wrap under the old DEK + one for the joiner.
        assert result.cost == 2


class TestTtScheme:
    def test_s_departure_leaves_l_partition_untouched(self):
        server = TwoPartitionServer(mode="tt", s_period=120.0)
        veterans, __ = admit(server, [f"v{i}" for i in range(16)], now=0.0)
        result = server.rekey(now=120.0)  # veterans migrate to L
        deliver(result, veterans)
        fresh, result = admit(server, [f"f{i}" for i in range(16)], now=130.0)
        deliver(result, veterans)

        l_versions = {
            n.node_id: n.key.version for n in server.partitions[1].tree.iter_nodes()
        }
        server.leave("f3", at_time=150.0)
        result = server.rekey(now=150.0)
        assert result.breakdown.get("l-partition", 0) == 0
        for node in server.partitions[1].tree.iter_nodes():
            assert node.key.version == l_versions[node.node_id]
        # L-members still reach the fresh DEK through the L-root wrap.
        deliver(result, veterans)
        dek = server.group_key()
        for member in veterans.values():
            assert member.holds(dek.key_id, dek.version)

    def test_forward_secrecy_for_s_and_l_departures(self):
        server = TwoPartitionServer(mode="tt", s_period=60.0)
        members, __ = admit(server, [f"m{i}" for i in range(8)], now=0.0)
        result = server.rekey(now=60.0)  # all migrate to L
        deliver(result, members)
        fresh, result = admit(server, ["s-member"], now=70.0)
        deliver(result, members)
        members.update(fresh)

        for victim in ("m0", "s-member"):  # one L, one S departure
            server.leave(victim, at_time=130.0)
            evicted = members.pop(victim)
            result = server.rekey(now=130.0)
            deliver(result, members)
            evicted.absorb(result.encrypted_keys)
            dek = server.group_key()
            assert not evicted.holds(dek.key_id, dek.version), victim
            for member in members.values():
                assert member.holds(dek.key_id, dek.version)


class TestPtScheme:
    def test_requires_member_class(self):
        server = TwoPartitionServer(mode="pt")
        with pytest.raises(ValueError):
            server.join("a")
        with pytest.raises(ValueError):
            server.join("a", member_class="weird")

    def test_placement_by_class(self):
        server = TwoPartitionServer(mode="pt")
        server.join("short", member_class=SHORT_CLASS)
        server.join("long", member_class=LONG_CLASS)
        server.rekey()
        assert server.in_s_partition("short")
        assert not server.in_s_partition("long")
        assert server.s_size == 1
        assert server.l_size == 1

    def test_other_modes_tolerate_class_hint(self):
        server = TwoPartitionServer(mode="tt")
        server.join("a", member_class=SHORT_CLASS)
        server.rekey()
        assert server.in_s_partition("a")

    def test_unknown_attribute_rejected(self):
        server = TwoPartitionServer(mode="tt")
        with pytest.raises(TypeError):
            server.join("a", favourite_colour="blue")

    def test_pt_departures_stay_inside_their_partition(self):
        server = TwoPartitionServer(mode="pt")
        for i in range(8):
            server.join(f"s{i}", member_class=SHORT_CLASS)
            server.join(f"l{i}", member_class=LONG_CLASS)
        server.rekey()
        server.leave("s0")
        result = server.rekey()
        assert result.breakdown.get("l-partition", 0) == 0
        server.leave("l0")
        result = server.rekey()
        assert result.breakdown.get("s-partition", 0) == 0
