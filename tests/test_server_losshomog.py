"""Unit tests for the loss-homogenized multi-keytree server."""

import pytest

from repro.members.member import Member
from repro.server.losshomog import LossHomogenizedServer


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
