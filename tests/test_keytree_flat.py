"""Unit tests for the flat-array key-tree kernel itself.

The heavyweight correctness gate is the differential battery
(``test_keytree_flat_differential.py``); these tests cover the flat
kernel's own surface — structure API, dump interchange with the object
kernel, slot recycling, and the kernel-selection plumbing.
"""

import pytest

from repro.crypto.material import KeyGenerator
from repro.keytree.flat import FlatKeyTree, FlatRekeyer
from repro.keytree.serialize import (
    TREE_KERNELS,
    kernel_tree_from_dict,
    make_kernel_rekeyer,
    make_kernel_tree,
    tree_from_dict,
    tree_to_dict,
)
from repro.keytree.sharded import ShardedKeyTree
from repro.keytree.tree import KeyTree
from repro.server.onetree import OneTreeServer


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


class TestKernelSelection:
    def test_kernel_discriminators(self):
        assert KeyTree.kernel == "object"
        assert FlatKeyTree.kernel == "flat"
        assert set(TREE_KERNELS) == {"object", "flat"}

    def test_make_kernel_tree_dispatches(self):
        for kernel, cls in (("object", KeyTree), ("flat", FlatKeyTree)):
            tree = make_kernel_tree(
                kernel, degree=3, keygen=KeyGenerator(1), name="t"
            )
            assert isinstance(tree, cls)
            rekeyer = make_kernel_rekeyer(tree)
            rekeyer.rekey_batch(joins=[("a", None), ("b", None)])
            assert tree.size == 2
        with pytest.raises(ValueError):
            make_kernel_tree("simd", degree=3, name="t")
        with pytest.raises(ValueError):
            kernel_tree_from_dict({}, kernel="simd")

    def test_server_rejects_unknown_kernel(self):
        with pytest.raises(ValueError):
            OneTreeServer(tree_kernel="simd")
        with pytest.raises(ValueError):
            ShardedKeyTree(shards=2, kernel="simd")

    def test_one_tree_server_flat_kernel_serves_group_key(self):
        server = OneTreeServer(degree=3, tree_kernel="flat")
        for i in range(9):
            server.join(f"m{i}")
        result = server.rekey()
        assert result.cost > 0
        dek = server.group_key()
        assert server.tree.kernel == "flat"
        assert dek.secret == server.tree.root.key.secret
        held = server._current_keys_of("m4")
        assert held[-1].key_id == dek.key_id
