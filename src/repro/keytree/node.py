"""Nodes of a logical key tree."""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.crypto.material import KeyMaterial


class Node:
    """A node of an object key tree: the one-way function tree, the Huffman
    tree and the reference :class:`~repro.testing.tree.KeyTree`.

    Internal nodes carry key-encryption keys (KEKs); the root carries the
    group data-encryption key (DEK); leaves carry the individual keys shared
    between one member and the key server.

    Attributes
    ----------
    node_id:
        Stable identifier, unique within the owning tree, used as the
        ``key_id`` of the node's :class:`KeyMaterial` across rekeys.
    key:
        Current key material for this node (version bumps on rekey).
    parent:
        Parent node, ``None`` for the root.
    children:
        Child nodes in insertion order; empty for leaves.
    member_id:
        For leaves, the member owning this leaf; ``None`` for internal nodes.
    leaf_count:
        Number of member leaves in this node's subtree, maintained
        incrementally by the tree's structural operations.
    """

    __slots__ = ("node_id", "key", "parent", "children", "member_id", "leaf_count")

    def __init__(
        self,
        node_id: str,
        key: KeyMaterial,
        member_id: Optional[str] = None,
    ) -> None:
        self.node_id = node_id
        self.key = key
        self.parent: Optional[Node] = None
        self.children: List[Node] = []
        self.member_id = member_id
        self.leaf_count = 1 if member_id is not None else 0

    @property
    def is_leaf(self) -> bool:
        """True when this node is a member leaf."""
        return self.member_id is not None

    @property
    def is_root(self) -> bool:
        return self.parent is None

    @property
    def depth(self) -> int:
        """Distance from the root (root has depth 0)."""
        depth = 0
        node = self
        while node.parent is not None:
            node = node.parent
            depth += 1
        return depth

    def path_to_root(self) -> List["Node"]:
        """Nodes from this node up to and including the root."""
        path = []
        node: Optional[Node] = self
        while node is not None:
            path.append(node)
            node = node.parent
        return path

    def iter_subtree(self) -> Iterator["Node"]:
        """Yield every node of this subtree, preorder."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def iter_leaves(self) -> Iterator["Node"]:
        """Yield the member leaves of this subtree."""
        for node in self.iter_subtree():
            if node.is_leaf:
                yield node

    def add_child(self, child: "Node") -> None:
        """Attach ``child`` and propagate leaf counts up the path."""
        if child.parent is not None:
            raise ValueError(f"node {child.node_id} already has a parent")
        child.parent = self
        self.children.append(child)
        delta = child.leaf_count
        node: Optional[Node] = self
        while node is not None:
            node.leaf_count += delta
            node = node.parent

    def remove_child(self, child: "Node") -> None:
        """Detach ``child`` and propagate leaf counts up the path."""
        if child.parent is not self:
            raise ValueError(f"node {child.node_id} is not a child of {self.node_id}")
        self.children.remove(child)
        child.parent = None
        delta = child.leaf_count
        node: Optional[Node] = self
        while node is not None:
            node.leaf_count -= delta
            node = node.parent

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = f"leaf:{self.member_id}" if self.is_leaf else f"internal[{len(self.children)}]"
        return f"<Node {self.node_id} {kind} leaves={self.leaf_count}>"
