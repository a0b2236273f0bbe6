"""Probabilistic LKH organization (Selcuk–McCubbin–Sidhu [SMS00]).

The paper's Section 2.3 discusses organizing the key tree "with respect to
the compromise probabilities of members, in a spirit similar to data
compression algorithms such as Huffman and Shannon–Fano coding": members
likely to be revoked soon sit close to the root, so their departure
refreshes a short path.  The PT-scheme is a two-bucket special case; this
module implements the full Huffman construction as an extension, plus the
expected-cost analysis that quantifies when unbalancing beats a balanced
tree.

The construction is the classic d-ary Huffman merge over revocation
weights (with dummy zero-weight leaves so every merge is full), yielding
for member *i* a depth ``h_i ≈ -log_d(p_i)``.  An individual departure of
member *i* costs about ``d * h_i`` encryptions, so the expected
per-departure cost is ``d * Σ q_i h_i`` with ``q_i`` the probability that
the departing member is *i* — exactly the weighted-path-length objective
Huffman minimizes.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto.material import KeyGenerator
from repro.keytree.node import Node


class HuffmanKeyTree:
    """A static LKH tree shaped by member revocation weights.

    Parameters
    ----------
    weights:
        ``member_id -> revocation weight`` (any positive scale; only the
        relative magnitudes matter).  The builder places heavy members
        near the root.
    degree:
        Tree fan-out ``d``.
    keygen:
        Fresh-key source.

    Unlike :class:`~repro.keytree.flat.FlatKeyTree` (which optimizes for
    online balance under churn), this structure is built once from known
    weights, as [SMS00] assume; use :meth:`rebuild` to re-shape after the
    weights change materially.
    """

    def __init__(
        self,
        weights: Dict[str, float],
        degree: int = 4,
        keygen: Optional[KeyGenerator] = None,
        name: str = "huffman",
    ) -> None:
        if degree < 2:
            raise ValueError("degree must be at least 2")
        if not weights:
            raise ValueError("at least one member is required")
        for member_id, weight in weights.items():
            if weight <= 0:
                raise ValueError(f"weight of {member_id!r} must be positive")
        self.degree = degree
        self.name = name
        self.keygen = keygen if keygen is not None else KeyGenerator()
        self._seq = itertools.count()
        self.weights = dict(weights)
        self.root: Node = self._build()
        self._member_leaf: Dict[str, Node] = {
            leaf.member_id: leaf for leaf in self.root.iter_leaves()
        }

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _build(self) -> Node:
        """d-ary Huffman merge; ties broken deterministically by insertion."""
        entries: List[Tuple[float, int, Node]] = []
        for member_id, weight in sorted(self.weights.items()):
            leaf_id = f"member:{member_id}"
            leaf = Node(leaf_id, self.keygen.generate(leaf_id), member_id=member_id)
            heapq.heappush(entries, (weight, next(self._seq), leaf))

        if len(entries) == 1:
            return entries[0][2]

        # Pad with zero-weight placeholders so the first merge takes
        # exactly the right count and every later merge is full:
        # a d-ary Huffman code needs (n - 1) ≡ 0 (mod d - 1).
        remainder = (len(entries) - 1) % (self.degree - 1)
        first_take = remainder + 1 if remainder else self.degree

        def merge(take: int) -> None:
            children = [heapq.heappop(entries) for __ in range(min(take, len(entries)))]
            node_id = f"{self.name}/n{next(self._seq)}"
            joint = Node(node_id, self.keygen.generate(node_id))
            for __, __, child in children:
                joint.add_child(child)
            total = sum(weight for weight, __, __ in children)
            heapq.heappush(entries, (total, next(self._seq), joint))

        merge(first_take)
        while len(entries) > 1:
            merge(self.degree)
        return entries[0][2]

    def rebuild(self, weights: Optional[Dict[str, float]] = None) -> None:
        """Re-shape the tree (e.g. after a weight-estimation pass)."""
        if weights is not None:
            self.weights = dict(weights)
        self.root = self._build()
        self._member_leaf = {
            leaf.member_id: leaf for leaf in self.root.iter_leaves()
        }

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._member_leaf)

    def __contains__(self, member_id: str) -> bool:
        return member_id in self._member_leaf

    def depth_of(self, member_id: str) -> int:
        """The member's leaf depth (short for likely-to-leave members)."""
        try:
            return self._member_leaf[member_id].depth
        except KeyError:
            raise KeyError(f"member {member_id!r} not in tree {self.name!r}") from None

    def departure_cost(self, member_id: str) -> int:
        """Encryptions an individual departure of ``member_id`` would cost:
        the surviving ancestors' remaining children, summed (the group-
        oriented departure procedure of Section 2.1)."""
        leaf = self._member_leaf.get(member_id)
        if leaf is None:
            raise KeyError(f"member {member_id!r} not in tree {self.name!r}")
        cost = 0
        node = leaf
        while node.parent is not None:
            parent = node.parent
            survivors = len(parent.children) - (1 if node is leaf else 0)
            # After the splice of a unary parent the wrap count is taken
            # over the remaining children; model the no-splice common case.
            cost += survivors
            node = parent
        return cost

    def expected_departure_cost(
        self, departure_probabilities: Optional[Dict[str, float]] = None
    ) -> float:
        """Expected encryptions per departure.

        ``departure_probabilities`` defaults to the construction weights,
        normalized — the [SMS00] objective.
        """
        probabilities = (
            departure_probabilities
            if departure_probabilities is not None
            else self.weights
        )
        total = sum(probabilities.get(m, 0.0) for m in self._member_leaf)
        if total <= 0:
            raise ValueError("departure probabilities must have positive mass")
        return sum(
            probabilities.get(member_id, 0.0) / total * self.departure_cost(member_id)
            for member_id in self._member_leaf
        )


def balanced_expected_departure_cost(member_count: int, degree: int = 4) -> float:
    """The balanced-tree comparator: every departure costs ≈ d·ceil(log_d N)."""
    if member_count <= 1:
        return 0.0
    return degree * math.ceil(math.log(member_count, degree) - 1e-12)


def entropy_lower_bound(
    departure_probabilities: Sequence[float], degree: int = 4
) -> float:
    """Information-theoretic floor on the weighted path length: ``H_d(q)``
    (per-departure cost is at least ``d * H_d(q)`` wraps, up to the +1
    integer-depth slack)."""
    total = sum(departure_probabilities)
    if total <= 0:
        raise ValueError("probabilities must have positive mass")
    entropy = 0.0
    for q in departure_probabilities:
        if q > 0:
            p = q / total
            entropy -= p * math.log(p, degree)
    return entropy
