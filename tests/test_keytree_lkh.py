"""Unit tests for the LKH rekeying engine, including the paper's examples."""

import pytest

from repro.crypto.material import KeyGenerator
from repro.members.member import Member
from repro.testing.lkh import LkhRekeyer
from repro.testing.tree import KeyTree

from tests.helpers import populate


def make_member(tree, member_id):
    """A Member primed with its individual key (registration channel)."""
    return Member(member_id, tree.leaf_of(member_id).key)


class TestIndividualJoin:
    def test_join_refreshes_whole_path(self, rekeyer):
        populate(rekeyer, 8)
        tree = rekeyer.tree
        before = {n.node_id: n.key.version for n in tree.iter_nodes() if not n.is_leaf}
        leaf, message = rekeyer.join("newbie")
        for node in leaf.path_to_root()[1:]:
            if node.node_id in before:
                assert node.key.version == before[node.node_id] + 1

    def test_joiner_can_bootstrap_entire_path(self, rekeyer):
        populate(rekeyer, 8)
        leaf, message = rekeyer.join("newbie")
        member = Member("newbie", leaf.key)
        member.process_rekey(message)
        root = rekeyer.tree.root.key
        assert member.holds(root.key_id, root.version)

    def test_existing_member_follows_old_key_wraps(self, rekeyer):
        populate(rekeyer, 8)
        tree = rekeyer.tree
        veteran = make_member(tree, "m0")
        # Give the veteran its current path keys directly (it was present
        # when they were distributed).
        for node in tree.path_of("m0"):
            veteran.install(node.key)
        __, message = rekeyer.join("newbie")
        veteran.process_rekey(message)
        root = tree.root.key
        assert veteran.holds(root.key_id, root.version)

    def test_joiner_cannot_recover_previous_root(self, rekeyer):
        populate(rekeyer, 8)
        old_root = rekeyer.tree.root.key
        leaf, message = rekeyer.join("newbie")
        member = Member("newbie", leaf.key)
        member.process_rekey(message)
        assert not member.holds(old_root.key_id, old_root.version)

    def test_paper_example_join_cost(self, keygen):
        """The U9 example: 8-member full binary... the paper's tree is
        degree-3-ish; we verify the structural rule instead: a join costs
        2 keys per refreshed path node when no split occurs (one wrap
        under the old key, one under the joiner's key)."""
        tree = KeyTree(degree=3, keygen=keygen)
        rekeyer = LkhRekeyer(tree)
        populate(rekeyer, 8)  # room left under degree-3 internal nodes
        before_nodes = {n.node_id for n in tree.iter_nodes()}
        leaf, message = rekeyer.join("u9")
        created = {
            n.node_id for n in leaf.path_to_root()[1:]
        } - before_nodes
        if not created:  # pure attachment, the paper's scenario
            path_keys = len(leaf.path_to_root()) - 1
            assert message.cost == 2 * path_keys


class TestIndividualLeave:
    def test_paper_example_departure_cost(self, keygen):
        """Fig. 1's U4 departure: 9 members, degree 3, full tree.

        K'1-9 is encrypted under K123, K'456 and K789 (3 wraps) and K'456
        under K5 and K6 (2 wraps): five encrypted keys total.
        """
        tree = KeyTree(degree=3, keygen=keygen)
        rekeyer = LkhRekeyer(tree)
        populate(rekeyer, 9, prefix="u")
        assert tree.height() == 2
        message = rekeyer.leave("u3")  # any mid-tree member
        assert message.cost == 5

    def test_departed_member_excluded_from_wraps(self, rekeyer):
        populate(rekeyer, 16)
        tree = rekeyer.tree
        evicted = make_member(tree, "m4")
        for node in tree.path_of("m4"):
            evicted.install(node.key)
        message = rekeyer.leave("m4")
        evicted.process_rekey(message)
        root = tree.root.key
        assert not evicted.holds(root.key_id, root.version)

    def test_survivors_can_follow(self, rekeyer):
        populate(rekeyer, 16)
        tree = rekeyer.tree
        survivor = make_member(tree, "m10")
        for node in tree.path_of("m10"):
            survivor.install(node.key)
        message = rekeyer.leave("m4")
        survivor.process_rekey(message)
        root = tree.root.key
        assert survivor.holds(root.key_id, root.version)

    def test_leave_shrinks_tree(self, rekeyer):
        populate(rekeyer, 10)
        rekeyer.leave("m0")
        assert rekeyer.tree.size == 9
        rekeyer.tree.validate()


class TestBatch:
    def test_batch_join_only(self, rekeyer):
        message = rekeyer.rekey_batch(joins=[(f"m{i}", None) for i in range(16)])
        assert rekeyer.tree.size == 16
        assert sorted(message.joined) == sorted(f"m{i}" for i in range(16))
        assert message.cost > 0

    def test_batch_departure_only(self, rekeyer):
        populate(rekeyer, 16)
        message = rekeyer.rekey_batch(departures=["m1", "m2", "m3"])
        assert rekeyer.tree.size == 13
        assert message.departed == ["m1", "m2", "m3"]

    def test_empty_batch_is_free(self, rekeyer):
        populate(rekeyer, 8)
        message = rekeyer.rekey_batch()
        assert message.cost == 0
        assert message.updated == []

    def test_force_root_refreshes_root_only(self, rekeyer):
        populate(rekeyer, 16)
        root_version = rekeyer.tree.root.key.version
        message = rekeyer.rekey_batch(force_root=True)
        assert rekeyer.tree.root.key.version == root_version + 1
        # Root wrapped once per child.
        assert message.cost == len(rekeyer.tree.root.children)

    def test_batching_saves_over_sequential_departures(self, keygen):
        """Shared path segments are refreshed once per batch (Section
        2.1.1's motivation)."""
        batch_tree = KeyTree(degree=4, keygen=KeyGenerator(1))
        batch_rekeyer = LkhRekeyer(batch_tree)
        populate(batch_rekeyer, 64)
        victims = [f"m{i}" for i in range(0, 16)]
        batched = batch_rekeyer.rekey_batch(departures=victims).cost

        seq_tree = KeyTree(degree=4, keygen=KeyGenerator(1))
        seq_rekeyer = LkhRekeyer(seq_tree)
        populate(seq_rekeyer, 64)
        sequential = sum(seq_rekeyer.leave(v).cost for v in victims)
        assert batched < sequential

    def test_batch_join_and_leave_share_marked_nodes(self, rekeyer):
        populate(rekeyer, 64)
        combined = rekeyer.rekey_batch(
            joins=[("j0", None)], departures=["m0"]
        ).cost
        # Cost of a combined batch is at most the sum of individual ops.
        tree2 = KeyTree(degree=4, keygen=KeyGenerator(1234))
        r2 = LkhRekeyer(tree2)
        populate(r2, 64)
        separate = r2.leave("m0").cost + r2.join("j0")[1].cost
        assert combined <= separate

    def test_all_members_recover_group_key_after_batch(self, rekeyer):
        populate(rekeyer, 32)
        tree = rekeyer.tree
        members = {}
        for m in tree.members():
            member = make_member(tree, m)
            for node in tree.path_of(m):
                member.install(node.key)
            members[m] = member
        message = rekeyer.rekey_batch(
            joins=[(f"j{i}", None) for i in range(4)],
            departures=["m0", "m5", "m9"],
        )
        for m in ("m0", "m5", "m9"):
            evicted = members.pop(m)
            evicted.process_rekey(message)
            root = tree.root.key
            assert not evicted.holds(root.key_id, root.version)
        for i in range(4):
            members[f"j{i}"] = make_member(tree, f"j{i}")
        for member in members.values():
            member.process_rekey(message)
            root = tree.root.key
            assert member.holds(root.key_id, root.version), member.member_id

    def test_epochs_increase(self, rekeyer):
        first = rekeyer.rekey_batch(joins=[("a", None)])
        second = rekeyer.rekey_batch(joins=[("b", None)])
        assert second.epoch > first.epoch
