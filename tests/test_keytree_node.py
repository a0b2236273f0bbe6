"""Unit tests for key-tree nodes."""

import pytest

from repro.crypto.material import KeyGenerator
from repro.keytree.node import Node


@pytest.fixture
def gen():
    return KeyGenerator(4)


def make_leaf(gen, member):
    return Node(f"member:{member}", gen.generate(f"member:{member}"), member_id=member)


def make_internal(gen, node_id):
    return Node(node_id, gen.generate(node_id))


class TestStructure:
    def test_leaf_properties(self, gen):
        leaf = make_leaf(gen, "a")
        assert leaf.is_leaf
        assert leaf.leaf_count == 1
        assert leaf.is_root

    def test_internal_starts_empty(self, gen):
        node = make_internal(gen, "n0")
        assert not node.is_leaf
        assert node.leaf_count == 0

    def test_add_child_links_and_counts(self, gen):
        root = make_internal(gen, "root")
        leaf = make_leaf(gen, "a")
        root.add_child(leaf)
        assert leaf.parent is root
        assert root.children == [leaf]
        assert root.leaf_count == 1

    def test_leaf_count_propagates_to_ancestors(self, gen):
        root = make_internal(gen, "root")
        mid = make_internal(gen, "mid")
        root.add_child(mid)
        mid.add_child(make_leaf(gen, "a"))
        mid.add_child(make_leaf(gen, "b"))
        assert mid.leaf_count == 2
        assert root.leaf_count == 2

    def test_remove_child_unlinks_and_counts(self, gen):
        root = make_internal(gen, "root")
        leaf = make_leaf(gen, "a")
        root.add_child(leaf)
        root.remove_child(leaf)
        assert leaf.parent is None
        assert root.children == []
        assert root.leaf_count == 0

    def test_add_child_rejects_already_parented(self, gen):
        r1, r2 = make_internal(gen, "r1"), make_internal(gen, "r2")
        leaf = make_leaf(gen, "a")
        r1.add_child(leaf)
        with pytest.raises(ValueError):
            r2.add_child(leaf)

    def test_remove_child_rejects_non_child(self, gen):
        r1, r2 = make_internal(gen, "r1"), make_internal(gen, "r2")
        leaf = make_leaf(gen, "a")
        r1.add_child(leaf)
        with pytest.raises(ValueError):
            r2.remove_child(leaf)


class TestTraversal:
    def build(self, gen):
        root = make_internal(gen, "root")
        left = make_internal(gen, "left")
        root.add_child(left)
        a, b = make_leaf(gen, "a"), make_leaf(gen, "b")
        left.add_child(a)
        left.add_child(b)
        c = make_leaf(gen, "c")
        root.add_child(c)
        return root, left, a, b, c

    def test_depth(self, gen):
        root, left, a, __, c = self.build(gen)
        assert root.depth == 0
        assert left.depth == 1
        assert a.depth == 2
        assert c.depth == 1

    def test_path_to_root(self, gen):
        root, left, a, __, __ = self.build(gen)
        assert a.path_to_root() == [a, left, root]

    def test_iter_subtree_preorder(self, gen):
        root, left, a, b, c = self.build(gen)
        assert list(root.iter_subtree()) == [root, left, a, b, c]

    def test_iter_leaves(self, gen):
        root, __, a, b, c = self.build(gen)
        assert list(root.iter_leaves()) == [a, b, c]
