"""The reference d-ary logical key tree: one object per node.

Every server builds :class:`~repro.keytree.flat.FlatKeyTree`; this is the
code a reader checks against the paper, and the tree the flat kernel must
match draw for draw (``tests/test_keytree_flat_differential.py``).
Structure follows Wallner et al. [WHA98] / Wong et al. [WGL98]:

* the **root** carries the sub-group key (the group DEK when the tree is the
  only tree; a partition KEK when the tree is one partition of a composed
  server, cf. Sections 3.2 and 4.2 of the paper — "we can view these two
  partitions as two sub-trees under the root key");
* **internal nodes** carry auxiliary key-encryption keys;
* **leaves** carry the individual keys shared between one member and the
  key server.

Insertion keeps the tree balanced by always attaching the new leaf at a
shallowest internal node with spare capacity, and splitting a shallowest
leaf when every internal node is full (Moyer et al. [MRR99] style
maintenance).  Removal detaches the leaf and splices out any internal node
left with a single child, preserving the invariant that every non-root
internal node has between 2 and ``degree`` children.

The tree is purely *structural*: it tracks which node holds which key and
where members sit.  Generating rekey messages (and deciding which keys must
change) is the job of :class:`repro.testing.lkh.LkhRekeyer`.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterator, List, Optional

from repro.crypto.material import KeyGenerator, KeyMaterial
from repro.keytree.flat import HEAP_SHED_FLOOR, HEAP_SHED_RATIO
from repro.keytree.node import Node
from repro.obs import metrics as obs_metrics


class KeyTree:
    """A balanced d-ary logical key tree.

    Parameters
    ----------
    degree:
        Maximum number of children per node (``d`` in the paper; default 4,
        the paper's evaluation default).
    keygen:
        Source of fresh key material; a seeded default is created when
        omitted so tests and simulations are reproducible.
    name:
        Prefix for node (and hence key) identifiers; must be unique among
        the trees a single server composes so key ids never collide.
    """

    def __init__(
        self,
        degree: int = 4,
        keygen: Optional[KeyGenerator] = None,
        name: str = "tree",
    ) -> None:
        if degree < 2:
            raise ValueError("key tree degree must be at least 2")
        self.degree = degree
        self.name = name
        self.keygen = keygen if keygen is not None else KeyGenerator()
        self._seq_value = 0
        root_id = f"{name}/root"
        self.root = Node(root_id, self.keygen.generate(root_id))
        self._nodes: Dict[str, Node] = {root_id: self.root}
        self._member_leaf: Dict[str, Node] = {}
        # Lazily-validated heaps of candidate attachment points, keyed by
        # (depth, tiebreak).  Entries go stale when nodes fill up, are
        # spliced out, or change depth; they are re-checked (and re-keyed)
        # at pop time.  Entries of dead nodes are also shed in bulk once
        # the heaps outgrow the live nodes (plus ``_heap_slack``, the live
        # duplicates that were there to stay at the last shed).
        self._open_internal: List[tuple] = [(0, self._next_seq(), self.root)]
        self._split_candidates: List[tuple] = []
        self._heap_slack = HEAP_SHED_FLOOR

    def _next_seq(self) -> int:
        """Monotonic tiebreak/id counter (plain int so snapshots can resume it)."""
        value = self._seq_value
        self._seq_value += 1
        return value

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of members currently in the tree."""
        return len(self._member_leaf)

    def __contains__(self, member_id: str) -> bool:
        return member_id in self._member_leaf

    def members(self) -> List[str]:
        """Member ids currently in the tree (unordered)."""
        return list(self._member_leaf)

    def leaf_of(self, member_id: str) -> Node:
        """The leaf node owned by ``member_id``."""
        try:
            return self._member_leaf[member_id]
        except KeyError:
            raise KeyError(f"member {member_id!r} is not in tree {self.name!r}") from None

    def path_of(self, member_id: str) -> List[Node]:
        """Nodes whose keys ``member_id`` holds: its leaf up to the root."""
        return self.leaf_of(member_id).path_to_root()

    def height(self) -> int:
        """Maximum leaf depth (0 for an empty tree)."""
        if not self._member_leaf:
            return 0
        return max(leaf.depth for leaf in self._member_leaf.values())

    def iter_nodes(self) -> Iterator[Node]:
        """Every node currently in the tree, preorder."""
        return self.root.iter_subtree()

    def internal_nodes(self) -> List[Node]:
        """All key-encryption-key nodes (root included, leaves excluded)."""
        return [node for node in self.iter_nodes() if not node.is_leaf]

    def node(self, node_id: str) -> Node:
        """Look up a live node by id."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise KeyError(f"no node {node_id!r} in tree {self.name!r}") from None

    def _alive(self, node: Node) -> bool:
        return self._nodes.get(node.node_id) is node

    # ------------------------------------------------------------------
    # structural mutation
    # ------------------------------------------------------------------

    def _fresh_internal(self) -> Node:
        node_id = f"{self.name}/n{self._next_seq()}"
        node = Node(node_id, self.keygen.generate(node_id))
        self._nodes[node_id] = node
        return node

    def add_member(self, member_id: str, key: Optional[KeyMaterial] = None) -> Node:
        """Attach a new leaf for ``member_id`` at a balance-preserving spot.

        Parameters
        ----------
        member_id:
            New member; must not already be present.
        key:
            The member's individual key.  When omitted a fresh one is
            generated (the simulated out-of-band registration channel).
            Members migrating between partitions pass their existing key so
            the individual key survives the move.

        Returns
        -------
        Node
            The newly attached leaf.
        """
        if member_id in self._member_leaf:
            raise ValueError(f"member {member_id!r} already in tree {self.name!r}")
        leaf_id = f"member:{member_id}"
        if key is None:
            key = self.keygen.generate(leaf_id)
        leaf = Node(leaf_id, key, member_id=member_id)
        self._attach_leaf(leaf)
        self._nodes[leaf.node_id] = leaf
        self._member_leaf[member_id] = leaf
        self._trim_heaps()
        obs_metrics.inc("keytree.add_member")
        return leaf

    def _attach_leaf(self, leaf: Node) -> None:
        target = self._pop_open_internal()
        if target is not None:
            target.add_child(leaf)
            self._note_candidates(target)
            self._note_candidates(leaf)
            return
        victim = self._pop_split_candidate()
        if victim is None:
            # Only possible when every node is saturated and there are no
            # leaves — i.e. the empty-root corner where the root itself has
            # space; _pop_open_internal() would have found it.  Guard anyway.
            raise RuntimeError("key tree has no attachment point")
        self._split_leaf(victim, leaf)

    def _split_leaf(self, victim: Node, leaf: Node) -> None:
        """Replace ``victim`` with a fresh internal node holding both leaves."""
        parent = victim.parent
        assert parent is not None, "split candidate cannot be the root"
        parent.remove_child(victim)
        joint = self._fresh_internal()
        joint.add_child(victim)
        joint.add_child(leaf)
        parent.add_child(joint)
        self._note_candidates(joint)
        self._note_candidates(victim)
        self._note_candidates(leaf)

    def _note_candidates(self, node: Node) -> None:
        """(Re-)register ``node`` in the lazily validated attachment heaps."""
        if node.is_leaf:
            heapq.heappush(
                self._split_candidates, (node.depth, self._next_seq(), node)
            )
        elif len(node.children) < self.degree:
            heapq.heappush(
                self._open_internal, (node.depth, self._next_seq(), node)
            )

    def _trim_heaps(self) -> None:
        """After every add and remove: shed the heaps' dead entries once
        they hold enough entries per live node that the scan pays."""
        if len(self._split_candidates) + len(self._open_internal) > (
            HEAP_SHED_RATIO * (len(self._nodes) + self._heap_slack)
        ):
            self._shed_dead_candidates()

    def _shed_dead_candidates(self) -> None:
        """Drop the heap entries of nodes no longer in the tree.

        Popping a dead entry only skips it, consuming no counter draws,
        and ``seq`` makes every entry's rank unique, so the pop order of
        what remains — hence every attachment and every draw — is exactly
        what it would have been.  Only *dead* entries go: a full internal
        node or a stale-depth entry of a live node keeps its place,
        because its older ``seq`` decides ties and re-keying it draws from
        the counter that also names new internal nodes.

        Without this a leaf that departs before it ever surfaces (steady
        J = L churn: removals keep opening slots, so splits are rare)
        pins its entry, its ``Node`` and its key for the life of the
        tree.  With it the heaps stay within a fixed multiple of the live
        nodes, after a mass departure as after a mass join.  Live entries
        beyond one per node cannot be shed, so ``_heap_slack`` allows for
        them: the next scan then needs a fixed fraction of this one's
        survivors in new adds and removes (each pushes at most three
        entries and frees at most two nodes) — amortised O(1) per
        operation whatever the heaps hold.
        """
        alive = self._nodes.get
        for heap in (self._open_internal, self._split_candidates):
            heap[:] = [
                entry for entry in heap if alive(entry[2].node_id) is entry[2]
            ]
            heapq.heapify(heap)
        survived = len(self._open_internal) + len(self._split_candidates)
        self._heap_slack = max(HEAP_SHED_FLOOR, survived - len(self._nodes))

    def _pop_open_internal(self) -> Optional[Node]:
        """Shallowest live internal node with spare capacity, if any."""
        heap = self._open_internal
        while heap:
            depth, __, node = heap[0]
            if (
                not self._alive(node)
                or node.is_leaf
                or len(node.children) >= self.degree
            ):
                heapq.heappop(heap)
                continue
            actual = node.depth
            if actual != depth:
                heapq.heapreplace(heap, (actual, self._next_seq(), node))
                continue
            heapq.heappop(heap)
            return node
        return None

    def _pop_split_candidate(self) -> Optional[Node]:
        """Shallowest live leaf, to be split into an internal pair."""
        heap = self._split_candidates
        while heap:
            depth, __, node = heap[0]
            if not self._alive(node) or not node.is_leaf or node.parent is None:
                heapq.heappop(heap)
                continue
            actual = node.depth
            if actual != depth:
                heapq.heapreplace(heap, (actual, self._next_seq(), node))
                continue
            heapq.heappop(heap)
            # The leaf stays in the tree (under a new internal parent), so
            # it remains a future split candidate.
            self._note_candidates(node)
            return node
        return None

    def remove_member(self, member_id: str) -> List[Node]:
        """Detach ``member_id``'s leaf and contract the path.

        Returns
        -------
        list of Node
            The surviving ancestors of the removed leaf, deepest first —
            exactly the nodes whose keys the departed member knew and which
            therefore must be rekeyed (the caller decides when).
        """
        leaf = self._member_leaf.pop(member_id, None)
        if leaf is None:
            raise KeyError(f"member {member_id!r} is not in tree {self.name!r}")
        parent = leaf.parent
        assert parent is not None, "member leaf must have a parent"
        parent.remove_child(leaf)
        del self._nodes[leaf.node_id]

        if parent is not self.root and len(parent.children) == 1:
            # Splice out the now-unary internal node.
            only_child = parent.children[0]
            grand = parent.parent
            assert grand is not None
            parent.remove_child(only_child)
            grand.remove_child(parent)
            grand.add_child(only_child)
            del self._nodes[parent.node_id]
            self._note_candidates(grand)
            self._note_candidates(only_child)
            survivors = only_child.path_to_root()[1:]
        else:
            self._note_candidates(parent)
            survivors = parent.path_to_root()

        self._trim_heaps()
        obs_metrics.inc("keytree.remove_member")
        return survivors

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check all structural invariants; raise ``AssertionError`` if broken.

        Checked invariants:

        * parent/child links are mutually consistent;
        * every non-root internal node has between 2 and ``degree`` children,
          the root has at most ``degree``;
        * ``leaf_count`` equals the actual number of member leaves below
          each node;
        * the member-to-leaf map is exactly the set of leaves;
        * the live-node index matches the reachable nodes.

        Balance is *not* asserted here: removals contract paths but never
        rebalance, so a long departure streak can legitimately leave the
        tree deeper than a freshly built one.  Use :meth:`is_balanced` when
        the workload (insertion-only, or churn-in-steady-state) justifies
        the bound.
        """
        reachable = {}
        for node in self.root.iter_subtree():
            assert node.node_id not in reachable, f"duplicate node id {node.node_id}"
            reachable[node.node_id] = node
            assert len(node.children) <= self.degree, (
                f"node {node.node_id} has {len(node.children)} > d children"
            )
            if node is not self.root and not node.is_leaf:
                assert len(node.children) >= 2, (
                    f"non-root internal node {node.node_id} is unary"
                )
            if node.is_leaf:
                assert not node.children, f"leaf {node.node_id} has children"
                assert node.leaf_count == 1
            else:
                assert node.leaf_count == sum(c.leaf_count for c in node.children), (
                    f"leaf_count stale at {node.node_id}"
                )
            for child in node.children:
                assert child.parent is node, (
                    f"child {child.node_id} does not point back to {node.node_id}"
                )
        assert reachable == self._nodes, "live-node index out of sync"
        leaves = {n.member_id: n for n in self.root.iter_leaves()}
        assert leaves == self._member_leaf, "member-to-leaf map out of sync"

    def is_balanced(self, slack: int = 1) -> bool:
        """Whether the height is within ``slack`` of ``ceil(log_d N)``.

        Guaranteed to hold after any insertion-only sequence; removals can
        transiently violate it (see :meth:`validate`).
        """
        if self.size <= 1:
            return True
        import math

        optimal = math.ceil(math.log(self.size, self.degree))
        return self.height() <= optimal + slack

    def to_dict(self) -> Dict:
        """The dump, under the name :class:`~repro.keytree.flat.FlatKeyTree`
        gives its own: one format, whichever class wrote it."""
        from repro.testing.serialize import tree_to_dict

        return tree_to_dict(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<KeyTree {self.name!r} d={self.degree} members={self.size} "
            f"height={self.height()}>"
        )
