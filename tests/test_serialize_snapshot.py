"""Tests for key-tree serialization and server snapshot/restore."""

import json

import pytest

from repro.crypto.material import KeyGenerator
from repro.members.durations import SHORT_CLASS
from repro.members.member import Member
from repro.server.losshomog import LossHomogenizedServer
from repro.server.onetree import OneTreeServer
from repro.server.snapshot import restore_server, snapshot_server
from repro.server.twopartition import TwoPartitionServer
from repro.testing.lkh import LkhRekeyer
from repro.testing.serialize import tree_from_dict, tree_to_dict
from repro.testing.tree import KeyTree

from tests.helpers import populate


class TestTreeSerialization:
    def build(self):
        tree = KeyTree(degree=3, keygen=KeyGenerator(61))
        rekeyer = LkhRekeyer(tree)
        populate(rekeyer, 25)
        rekeyer.rekey_batch(departures=["m1", "m7"])
        return tree

    def test_roundtrip_is_json_compatible(self):
        tree = self.build()
        data = json.loads(json.dumps(tree_to_dict(tree)))
        restored = tree_from_dict(data)
        assert restored.size == tree.size
        assert sorted(restored.members()) == sorted(tree.members())

    def test_roundtrip_preserves_keys_and_versions(self):
        tree = self.build()
        restored = tree_from_dict(tree_to_dict(tree))
        for node in tree.iter_nodes():
            twin = restored.node(node.node_id)
            assert twin.key == node.key

    def test_restored_tree_keeps_balancing_behaviour(self):
        tree = self.build()
        restored = tree_from_dict(tree_to_dict(tree))
        for i in range(20):
            restored.add_member(f"new{i}")
        restored.validate()
        assert restored.is_balanced(slack=2)

    def test_node_ids_never_collide_after_restore(self):
        tree = self.build()
        restored = tree_from_dict(tree_to_dict(tree))
        existing = {n.node_id for n in restored.iter_nodes()}
        # Force splits: each new internal node id must be fresh.
        for i in range(30):
            restored.add_member(f"post{i}")
        fresh = {n.node_id for n in restored.iter_nodes()} - existing
        assert all(node_id not in existing for node_id in fresh)
        restored.validate()

    def test_restored_tree_attaches_joins_identically(self):
        """The attachment heaps round-trip verbatim.

        Re-seeding them on restore consumed fresh generator draws, so a
        restored tree broke ties differently from the live one and joins
        landed in different slots — which the crash-and-restore fault
        path (replayed batch must re-derive the identical payload)
        relies on never happening.
        """
        tree = self.build()
        # Extra churn so the heaps hold stale-depth and dead entries.
        for i in range(7):
            tree.add_member(f"extra{i}")
        for member in ("m3", "m12", "extra2"):
            tree.remove_member(member)
        restored = tree_from_dict(json.loads(json.dumps(tree_to_dict(tree))))
        for i in range(15):
            live = tree.add_member(f"twin{i}")
            twin = restored.add_member(f"twin{i}")
            assert twin.node_id == live.node_id
            assert twin.parent.node_id == live.parent.node_id
        assert {n.node_id for n in restored.iter_nodes()} == {
            n.node_id for n in tree.iter_nodes()
        }
        restored.validate()

    def test_unknown_format_rejected(self):
        tree = self.build()
        data = tree_to_dict(tree)
        data["format"] = 99
        with pytest.raises(ValueError):
            tree_from_dict(data)


def drive(server, members, result):
    for member in members.values():
        member.absorb(result.encrypted_keys)


def populate_server(server, count=12, **attrs):
    members = {}
    for i in range(count):
        reg = server.join(f"m{i}", at_time=0.0, **attrs)
        members[f"m{i}"] = Member(f"m{i}", reg.individual_key)
    result = server.rekey(now=60.0)
    drive(server, members, result)
    return members


SERVER_BUILDERS = {
    "one": lambda: OneTreeServer(degree=4),
    "qt": lambda: TwoPartitionServer(mode="qt", s_period=300.0),
    "tt": lambda: TwoPartitionServer(mode="tt", s_period=300.0),
    "losshomog": lambda: LossHomogenizedServer(class_rates=(0.2, 0.02)),
}


def join_attrs(kind):
    if kind == "losshomog":
        return {"loss_rate": 0.02}
    return {}


class TestServerSnapshot:
    @pytest.mark.parametrize("kind", list(SERVER_BUILDERS))
    def test_roundtrip_is_json_compatible(self, kind):
        server = SERVER_BUILDERS[kind]()
        populate_server(server, **join_attrs(kind))
        state = json.loads(json.dumps(snapshot_server(server)))
        restored = restore_server(state)
        assert restored.size == server.size
        assert sorted(restored.members()) == sorted(server.members())
        assert restored.group_key() == server.group_key()

    @pytest.mark.parametrize("kind", list(SERVER_BUILDERS))
    def test_restored_server_continues_identically(self, kind):
        """The gold test: run the same post-snapshot operations on the
        original and the restored server — byte-identical batches."""
        server = SERVER_BUILDERS[kind]()
        members = populate_server(server, **join_attrs(kind))
        state = snapshot_server(server)
        restored = restore_server(state)

        def continue_run(target):
            target.leave("m2", at_time=120.0)
            target.join("late", at_time=125.0, **join_attrs(kind))
            return target.rekey(now=120.0)

        original_batch = continue_run(server)
        restored_batch = continue_run(restored)
        assert original_batch.epoch == restored_batch.epoch
        assert original_batch.encrypted_keys == restored_batch.encrypted_keys
        assert server.group_key() == restored.group_key()

    def test_members_survive_a_server_restart(self):
        """Members keep decrypting across a snapshot/restore boundary
        without any re-registration."""
        server = SERVER_BUILDERS["tt"]()
        members = populate_server(server)
        restored = restore_server(snapshot_server(server))
        restored.leave("m0", at_time=120.0)
        evicted = members.pop("m0")
        result = restored.rekey(now=120.0)
        dek = restored.group_key()
        for member in members.values():
            member.absorb(result.encrypted_keys)
            assert member.holds(dek.key_id, dek.version)
        evicted.absorb(result.encrypted_keys)
        assert not evicted.holds(dek.key_id, dek.version)

    def test_pending_batch_survives_restart(self):
        server = SERVER_BUILDERS["one"]()
        populate_server(server)
        server.join("pending-joiner", at_time=70.0)
        server.leave("m1", at_time=75.0)
        restored = restore_server(snapshot_server(server))
        result = restored.rekey(now=120.0)
        assert result.joined == ["pending-joiner"]
        assert result.departed == ["m1"]

    def test_migration_clocks_survive_restart(self):
        server = SERVER_BUILDERS["tt"]()
        populate_server(server)  # entered S at t=60
        restored = restore_server(snapshot_server(server))
        result = restored.rekey(now=360.0)  # s_period=300 reached
        assert sorted(result.migrated) == sorted(f"m{i}" for i in range(12))

    def test_pt_class_map_survives_restart(self):
        server = TwoPartitionServer(mode="pt")
        server.join("s", member_class=SHORT_CLASS)
        server.rekey(now=0.0)
        restored = restore_server(snapshot_server(server))
        assert restored.in_s_partition("s")

    def test_unknown_format_rejected(self):
        server = SERVER_BUILDERS["one"]()
        state = snapshot_server(server)
        state["format"] = 42
        with pytest.raises(ValueError):
            restore_server(state)

    def test_unsupported_server_rejected(self):
        class Unregistered(OneTreeServer):
            kind = "unregistered"

        for server in (Unregistered(), object()):
            with pytest.raises(TypeError):
                snapshot_server(server)
