"""Unit tests for the loss-homogenized multi-keytree server.

Its three-tree form is also the suite's many-partition server: the DEK
stitch over several populated roots is pinned on it here.
"""

import pickle

import pytest

from repro.members.member import Member
from repro.server.losshomog import LossHomogenizedServer

from tests.helpers import THREE_CLASS_RATES, three_tree_server


def admit(server, specs, now=0.0):
    """``specs`` is {member_id: loss_rate}."""
    members = {}
    for member_id, loss in specs.items():
        kwargs = {"loss_rate": loss} if server.placement == "loss" else {}
        reg = server.join(member_id, at_time=now, **kwargs)
        members[member_id] = Member(member_id, reg.individual_key)
    result = server.rekey(now=now)
    for member in members.values():
        member.absorb(result.encrypted_keys)
    return members, result


class TestConstruction:
    def test_rejects_empty_classes(self):
        with pytest.raises(ValueError):
            LossHomogenizedServer(class_rates=())

    def test_rejects_unknown_placement(self):
        with pytest.raises(ValueError):
            LossHomogenizedServer(placement="chaotic")

    def test_deduplicates_class_rates(self):
        server = LossHomogenizedServer(class_rates=(0.2, 0.2, 0.02))
        assert server.class_rates == (0.2, 0.02)


class TestPlacement:
    def test_nearest_rate_wins(self):
        server = LossHomogenizedServer(class_rates=(0.20, 0.02))
        server.join("high", loss_rate=0.25)
        server.join("low", loss_rate=0.001)
        server.join("middle-high", loss_rate=0.15)
        server.rekey()
        assert server.tree_of("high") == 0.20
        assert server.tree_of("low") == 0.02
        assert server.tree_of("middle-high") == 0.20

    def test_loss_placement_requires_rate(self):
        server = LossHomogenizedServer()
        with pytest.raises(ValueError):
            server.join("a")

    def test_random_placement_round_robins(self):
        server = LossHomogenizedServer(class_rates=(0.2, 0.02), placement="random")
        for i in range(10):
            server.join(f"m{i}")
        server.rekey()
        sizes = server.tree_sizes()
        assert sizes[0.2] == 5
        assert sizes[0.02] == 5

    def test_tree_of_unknown_raises(self):
        server = LossHomogenizedServer()
        with pytest.raises(KeyError):
            server.tree_of("ghost")

    def test_members_never_move_between_trees(self):
        """Section 4.2: once placed, a member stays even if its loss
        estimate would now map elsewhere (no re-homogenization)."""
        server = LossHomogenizedServer(class_rates=(0.2, 0.02))
        server.join("a", loss_rate=0.18)
        server.rekey()
        placed = server.tree_of("a")
        for now in (60.0, 120.0, 180.0):
            server.rekey(now=now)
        assert server.tree_of("a") == placed


class TestRekeying:
    def test_everyone_gets_group_key(self):
        server = LossHomogenizedServer(class_rates=(0.2, 0.02))
        members, __ = admit(
            server, {f"h{i}": 0.2 for i in range(4)} | {f"l{i}": 0.02 for i in range(12)}
        )
        dek = server.group_key()
        for member in members.values():
            assert member.holds(dek.key_id, dek.version), member.member_id

    def test_departure_in_one_tree_leaves_other_interior_untouched(self):
        server = LossHomogenizedServer(class_rates=(0.2, 0.02))
        members, __ = admit(
            server, {f"h{i}": 0.2 for i in range(8)} | {f"l{i}": 0.02 for i in range(8)}
        )
        low_tree = server.partitions[1].tree
        versions = {n.node_id: n.key.version for n in low_tree.iter_nodes()}
        server.leave("h0", at_time=60.0)
        evicted = members.pop("h0")
        result = server.rekey(now=60.0)
        # Low tree: only the DEK wrap under its (unchanged) root.
        for node in low_tree.iter_nodes():
            assert node.key.version == versions[node.node_id]
        assert result.breakdown.get("tree-p0.02", 0) == 0
        # Forward secrecy still holds.
        for member in members.values():
            member.absorb(result.encrypted_keys)
        evicted.absorb(result.encrypted_keys)
        dek = server.group_key()
        assert not evicted.holds(dek.key_id, dek.version)
        for member in members.values():
            assert member.holds(dek.key_id, dek.version)

    def test_group_key_wraps_once_per_populated_tree_on_departure(self):
        server = LossHomogenizedServer(class_rates=(0.2, 0.02))
        members, __ = admit(
            server, {"h0": 0.2, "h1": 0.2, "l0": 0.02, "l1": 0.02}
        )
        server.leave("h0")
        result = server.rekey()
        assert result.breakdown["group-key"] == 2

    def test_empty_tree_costs_nothing(self):
        server = LossHomogenizedServer(class_rates=(0.2, 0.02))
        members, result = admit(server, {"l0": 0.02, "l1": 0.02})
        assert "tree-p0.2" not in result.breakdown
        server.leave("l0")
        result = server.rekey()
        assert result.breakdown["group-key"] == 1  # only the populated tree

    def test_misplaced_member_still_gets_keys(self):
        """Misplacement costs bandwidth (Fig. 7), never correctness."""
        server = LossHomogenizedServer(class_rates=(0.2, 0.02))
        members, __ = admit(server, {"actually-low": 0.2, "l0": 0.02})
        server.leave("l0", at_time=60.0)
        members.pop("l0")
        result = server.rekey(now=60.0)
        for member in members.values():
            member.absorb(result.encrypted_keys)
            dek = server.group_key()
            assert member.holds(dek.key_id, dek.version)


def three_trees(count=18):
    """A three-tree server with ``count`` members spread over every tree;
    returns it with the members' registrations."""
    server = three_tree_server(degree=4)
    registrations = {
        f"m{i}": server.join(
            f"m{i}", 0.0, loss_rate=THREE_CLASS_RATES[i % len(THREE_CLASS_RATES)]
        )
        for i in range(count)
    }
    server.rekey(now=0.0)
    assert all(part.size for part in server.partitions)
    return server, registrations


class TestDekStitch:
    def test_departure_wraps_dek_under_every_populated_root(self):
        server, __ = three_trees()
        server.leave("m3", 10.0)
        result = server.rekey(now=10.0)
        dek = server.group_key()
        dek_wraps = [
            ek for ek in result.encrypted_keys if ek.payload_id == dek.key_id
        ]
        roots = [part.tree.root.key for part in server.partitions]
        # One wrap per root, in partition order, under its current version.
        assert [(ek.wrapping_id, ek.wrapping_version) for ek in dek_wraps] == [
            root.handle for root in roots
        ]
        assert all(ek.payload_version == dek.version for ek in dek_wraps)

    def test_join_only_batch_wraps_dek_under_previous_dek(self):
        server, __ = three_trees()
        previous = server.group_key()
        server.join("late", 10.0, loss_rate=0.1)
        result = server.rekey(now=10.0)
        dek = server.group_key()
        assert dek.version == previous.version + 1
        wrappings = {
            ek.wrapping_id: ek.wrapping_version
            for ek in result.encrypted_keys
            if ek.payload_id == dek.key_id
        }
        assert wrappings[previous.key_id] == previous.version

    def test_breakdown_attributes_stitch_separately(self):
        server, __ = three_trees()
        label = server.shard_label("m1")
        server.leave("m1", 10.0)
        result = server.rekey(now=10.0)
        # Only the tree the member left is rekeyed; the stitch comes last.
        assert list(result.breakdown) == [label, "group-key"]
        assert sum(result.breakdown.values()) == result.cost


class TestOpenedTableStaysHome:
    """A batch result is delivered through one shared index; pickling the
    delivered result ships ciphertext only, never the keys receivers
    opened."""

    def test_pickled_result_round_trips_without_the_table(self):
        server = three_tree_server(degree=4)
        regs = {
            f"m{i}": server.join(
                f"m{i}", 0.0, loss_rate=THREE_CLASS_RATES[i % len(THREE_CLASS_RATES)]
            )
            for i in range(24)
        }
        result = server.rekey(now=0.0)
        assert all(part.size for part in server.partitions)
        dek = server.group_key()
        index = result.index()
        members = [Member(m, reg.individual_key) for m, reg in regs.items()]
        for member in members:
            member.absorb(result.encrypted_keys, index=index)
        assert all(m.holds(dek.key_id, dek.version) for m in members)
        assert len(index.opened) >= len(members)

        blob = pickle.dumps(result)
        assert all(payload.secret not in blob for payload in index.opened.values())
        assert all(secret not in blob for secret in index.opened_with.values())
        shipped = pickle.loads(blob)
        assert shipped.encrypted_keys == result.encrypted_keys
        assert shipped.index().opened == shipped.index().opened_with == {}
        rebuilt = shipped.index()
        assert (rebuilt.heads, rebuilt.chain) == (index.heads, index.chain)
        assert shipped.index().size == index.size
        # The far side opens everything itself and reaches the same keys.
        late = Member("m0", regs["m0"].individual_key)
        late.absorb(shipped.encrypted_keys, index=shipped.index())
        assert late.held_versions() == members[0].held_versions()
