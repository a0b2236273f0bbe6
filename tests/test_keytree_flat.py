"""Unit tests for the flat-array key-tree kernel itself.

The heavyweight correctness gate is the differential battery
(``test_keytree_flat_differential.py``); these tests cover the flat
kernel's own surface — structure API, dump interchange with the object
kernel, slot recycling and compaction, and the fact that it is the one
kernel every server builds.
"""

import pytest

from repro.crypto.material import KeyGenerator
from repro.keytree import flat
from repro.keytree.flat import FlatKeyTree, FlatRekeyer
from repro.server.onetree import OneTreeServer
from repro.server.twopartition import TwoPartitionServer
from repro.testing import SCHEME_FACTORIES
from repro.testing.invariants import _tree_structures
from repro.testing.lkh import LkhRekeyer
from repro.testing.serialize import tree_from_dict, tree_to_dict
from repro.testing.tree import KeyTree


def build_flat(count=25, degree=3, seed=9):
    tree = FlatKeyTree(degree=degree, keygen=KeyGenerator(seed), name="t")
    rekeyer = FlatRekeyer(tree)
    rekeyer.rekey_batch(joins=[(f"m{i}", None) for i in range(count)])
    return tree, rekeyer


class TestFlatTreeStructure:
    def test_bulk_join_builds_a_valid_balanced_tree(self):
        tree, _ = build_flat(count=64, degree=4)
        tree.validate()
        assert tree.size == 64
        assert sorted(tree.members()) == sorted(f"m{i}" for i in range(64))
        assert tree.is_balanced(slack=1)

    def test_node_views_walk_like_object_nodes(self):
        tree, _ = build_flat(count=10, degree=2)
        root = tree.root
        assert root.depth == 0
        assert not root.is_leaf
        path = tree.path_of("m3")  # leaf first, root last
        assert path[0].is_leaf
        assert path[0].member_id == "m3"
        assert path[-1].node_id == root.node_id
        assert [v.depth for v in reversed(path)] == list(range(len(path)))
        assert all(child.parent.node_id == root.node_id for child in root.children)

    def test_member_errors(self):
        tree, rekeyer = build_flat(count=4)
        with pytest.raises(KeyError):
            tree.remove_member("nope")
        with pytest.raises(ValueError):
            rekeyer.rekey_batch(joins=[("m0", None)])  # duplicate member

    @pytest.mark.parametrize("join_refresh", ["random", "owf"])
    def test_a_refused_join_keeps_the_draws_before_it(self, join_refresh):
        """A batch that refuses a join part-way leaves the tree and both
        counters where the object kernel leaves them: every join before
        the refused one was placed and drew."""
        flat_tree = FlatKeyTree(degree=3, keygen=KeyGenerator(5), name="t")
        obj_tree = KeyTree(degree=3, keygen=KeyGenerator(5), name="t")
        joins = [(f"n{i}", None) for i in range(6)] + [("n3", None)]
        for rekeyer in (FlatRekeyer(flat_tree), LkhRekeyer(obj_tree)):
            rekeyer.rekey_batch(joins=[(f"m{i}", None) for i in range(5)])
            with pytest.raises(ValueError, match="n3"):
                rekeyer.rekey_batch(joins=joins, join_refresh=join_refresh)
        assert flat_tree.size == 11
        assert flat_tree.to_dict() == tree_to_dict(obj_tree)
        assert flat_tree.keygen.state() == obj_tree.keygen.state()

    def test_departure_recycles_slots(self):
        tree, rekeyer = build_flat(count=16, degree=2)
        assert not tree._free
        rekeyer.rekey_batch(departures=["m5"])
        tree.validate()
        assert tree._free  # leaf + spliced parent went to the freelist
        free_before = len(tree._free)
        rekeyer.rekey_batch(joins=[("fresh", None)])
        tree.validate()
        assert len(tree._free) < free_before  # reused, not grown

    def test_freed_slot_generation_bump_kills_stale_heap_entries(self):
        tree, rekeyer = build_flat(count=16, degree=2)
        leaf = tree._member_leaf["m5"]
        stale = (leaf, tree._gen[leaf])
        assert any(entry[2:] == stale for entry in tree._split_candidates)
        rekeyer.rekey_batch(departures=["m5"])
        assert leaf in tree._free
        assert tree._gen[leaf] == stale[1] + 1
        # The dead tenant's entry may still sit in the heap array, but it
        # is invisible: dumps skip it and no pop can surface it.
        assert all(
            node_id != "member:m5"
            for _, _, node_id in tree.to_dict()["split_candidates"]
        )
        # The slot's next tenants carry the new generation, so the stale
        # entry stays dead however often the slot is reused.
        for round_no in range(3):
            rekeyer.rekey_batch(joins=[(f"fresh{round_no}", None)])
            tree.validate()
            rekeyer.rekey_batch(departures=[f"fresh{round_no}"])
        live = {
            entry[2:]
            for heap in (tree._split_candidates, tree._open_internal)
            for entry in heap
            if tree._gen[entry[2]] == entry[3]
        }
        assert stale not in live
        assert all(tree._ids[idx] is not None for idx, _ in live)


class TestDumpInterchange:
    def test_flat_dump_restores_into_object_tree(self):
        tree, _ = build_flat(count=12)
        restored = tree_from_dict(tree.to_dict(), keygen=KeyGenerator(9))
        restored.validate()
        assert sorted(restored.members()) == sorted(tree.members())
        assert restored.root.key.secret == tree.root.key.secret

    def test_object_dump_restores_into_flat_tree(self):
        obj = KeyTree(degree=3, keygen=KeyGenerator(4), name="t")
        for i in range(12):
            obj.add_member(f"m{i}")
        flat = FlatKeyTree.from_dict(tree_to_dict(obj), keygen=KeyGenerator(4))
        flat.validate()
        assert sorted(flat.members()) == sorted(obj.members())
        assert flat.to_dict() == tree_to_dict(obj)


class TestSlotCompaction:
    """Sparse slot arrays are given back between batches, unobservably."""

    @pytest.fixture(autouse=True)
    def small_floor(self, monkeypatch):
        monkeypatch.setattr(flat, "SLOT_COMPACT_FLOOR", 8)

    def test_mass_departure_shrinks_every_column(self):
        tree, rekeyer = build_flat(count=200, degree=4)
        slots_before = len(tree._ids)
        rekeyer.rekey_batch(departures=[f"m{i}" for i in range(190)])
        tree.validate()
        live = len(tree._index)
        assert not tree._free
        assert slots_before > 4 * live
        for column in (
            tree._parent, tree._nchild, tree._ids, tree._member,
            tree._versions, tree._secrets, tree._leafcnt, tree._depthv,
            tree._gen,
        ):
            assert len(column) == live
        assert len(tree._child) == live * tree.degree
        assert sorted(tree._index.values()) == list(range(live))
        assert tree._index[tree.root.node_id] == flat.ROOT
        assert sorted(tree.members()) == sorted(f"m{i}" for i in range(190, 200))

    def test_compaction_moves_nothing_a_dump_or_a_pop_can_see(self):
        tree, rekeyer = build_flat(count=120, degree=3)
        for i in range(0, 100, 2):  # tree-level removals: only a rekeyer trims
            tree.remove_member(f"m{i}")
        before = tree.to_dict()
        heaps_before = [
            [(depth, seq) for depth, seq, _, _ in heap]
            for heap in (tree._open_internal, tree._split_candidates)
        ]
        dead_before = sum(
            tree._gen[idx] != gen
            for heap in (tree._open_internal, tree._split_candidates)
            for _, _, idx, gen in heap
        )
        assert dead_before  # the remap has dead entries to carry over
        tree._compact()
        tree.validate()
        assert tree.to_dict() == before
        assert [
            [(depth, seq) for depth, seq, _, _ in heap]
            for heap in (tree._open_internal, tree._split_candidates)
        ] == heaps_before
        assert dead_before == sum(
            tree._gen[idx] != gen
            for heap in (tree._open_internal, tree._split_candidates)
            for _, _, idx, gen in heap
        )
        # Dead entries stay dead whatever the compacted tree goes on to do.
        for round_no in range(3):
            rekeyer.rekey_batch(joins=[(f"n{round_no}-{i}", None) for i in range(40)])
            rekeyer.rekey_batch(
                departures=[f"n{round_no}-{i}" for i in range(40)]
            )
            tree.validate()

    def test_threshold_counts_free_slots_against_live_ones(self):
        tree, rekeyer = build_flat(count=64, degree=4)
        # Free slots up to 3 x live + the floor are kept for reuse.
        rekeyer.rekey_batch(departures=[f"m{i}" for i in range(40)])
        assert tree._free
        assert len(tree._free) <= 3 * len(tree._index) + 8
        rekeyer.rekey_batch(departures=[f"m{i}" for i in range(40, 62)])
        assert not tree._free
        tree.validate()

    def test_single_leave_compacts_too(self):
        tree, rekeyer = build_flat(count=80, degree=4)
        for i in range(78):
            rekeyer.leave(f"m{i}")
        tree.validate()
        assert len(tree._ids) < 40
        assert sorted(tree.members()) == ["m78", "m79"]


class TestSingleKernel:
    def test_every_scheme_builds_flat_trees(self):
        for name, spec in SCHEME_FACTORIES.items():
            trees = _tree_structures(spec.factory())
            assert trees, name
            assert all(isinstance(tree, FlatKeyTree) for _, tree in trees), name

    def test_kernel_argument_is_gone(self):
        with pytest.raises(TypeError):
            OneTreeServer(tree_kernel="flat")
        with pytest.raises(TypeError):
            TwoPartitionServer(mode="tt", tree_kernel="flat")

    def test_one_tree_server_serves_group_key(self):
        server = OneTreeServer(degree=3)
        for i in range(9):
            server.join(f"m{i}")
        result = server.rekey()
        assert result.cost > 0
        dek = server.group_key()
        assert dek.secret == server.tree.root.key.secret
        held = server._current_keys_of("m4")
        assert held[-1].key_id == dek.key_id
