"""Group-oriented LKH rekeying over a :class:`KeyTree`: the reference
:class:`~repro.keytree.flat.FlatRekeyer` must match byte for byte.

Implements the three rekeying operations of Section 2 of the paper:

* **individual join** (Section 2.1, "Join Procedure") — every key on the
  new leaf's path is refreshed; each refreshed key is multicast encrypted
  under its *previous* version (1 encryption, decryptable by everyone who
  held it) and under the joiner's individual key (so the joiner can learn
  its whole path).  This matches the paper's U9 example exactly.
* **individual leave** (Section 2.1, "Departure Procedure") — every
  surviving ancestor of the removed leaf is refreshed; each refreshed key
  is encrypted under each of its children's *current* keys.  This matches
  the paper's U4 example (five encrypted keys for the 9-member tree).
* **batched rekeying** (Section 2.1.1, [YLZL01]-style marking) — all leaves
  departed and joined during a rekey interval are processed at once: the
  union of their path ancestors is marked, every marked node gets a fresh
  key, and each fresh key is encrypted under each child's current key
  (the child's fresh key when the child is marked too).  Overlapping paths
  are the source of the batching savings, and the expected encryption
  count is what Appendix A's ``Ne(N, L)`` models.

The rekeyer mutates the tree *and* the key material; it is the sole place
key versions are bumped, so members can rely on (key_id, version) handles.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.crypto.material import KeyGenerator, KeyMaterial
from repro.crypto.wrap import RekeyMessage, wrap_key
from repro.keytree.node import Node
from repro.obs import tracing as obs_tracing
from repro.testing.tree import KeyTree


class LkhRekeyer:
    """Stateful rekeying engine bound to one :class:`KeyTree`.

    Parameters
    ----------
    tree:
        The key tree to operate on; structural changes (insertion, removal)
        are performed through this rekeyer so keys are refreshed coherently.
    keygen:
        Fresh-key source; defaults to the tree's own generator.
    """

    def __init__(
        self,
        tree: KeyTree,
        keygen: Optional[KeyGenerator] = None,
    ) -> None:
        self.tree = tree
        self.keygen = keygen if keygen is not None else tree.keygen
        self._next_epoch = 1

    def _take_epoch(self) -> int:
        """Consume the next message epoch (plain int so snapshots resume it)."""
        epoch = self._next_epoch
        self._next_epoch += 1
        return epoch

    # ------------------------------------------------------------------
    # individual operations (Section 2.1)
    # ------------------------------------------------------------------

    def join(
        self, member_id: str, key: Optional[KeyMaterial] = None
    ) -> Tuple[Node, RekeyMessage]:
        """Admit ``member_id`` immediately, rekeying its whole path.

        Returns the new leaf and the rekey message.  The message lets
        existing members decrypt each refreshed key under its previous
        version, and lets the joiner bootstrap its entire path from its
        individual key.
        """
        before = set(self.tree._nodes)
        leaf = self.tree.add_member(member_id, key)
        message = RekeyMessage(
            group=self.tree.name, epoch=self._take_epoch(), joined=[member_id]
        )
        # Refresh bottom-up so that "previous version" wraps use the key
        # generations existing members actually hold.
        for node in leaf.path_to_root()[1:]:
            old_key = node.key
            node.key = self.keygen.rekey(old_key)
            message.updated.append(node.key.handle)
            if node.node_id in before:
                # Existing key: everyone holding the old version learns the
                # new one from a single encryption.
                message.encrypted_keys.append(wrap_key(old_key, node.key))
            else:
                # Node created by a leaf split: no previous version exists;
                # wrap under the displaced leaf's individual key instead.
                for child in node.children:
                    if child is not leaf:
                        message.encrypted_keys.append(wrap_key(child.key, node.key))
            # The joiner bootstraps from its individual key.
            message.encrypted_keys.append(wrap_key(leaf.key, node.key))
        return leaf, message

    def leave(self, member_id: str) -> RekeyMessage:
        """Evict ``member_id`` immediately, rekeying its surviving ancestors.

        Every surviving ancestor gets a fresh key, encrypted under each of
        its children's current keys — none of which the departed member
        holds, which is what forward confidentiality requires.
        """
        survivors = self.tree.remove_member(member_id)
        message = RekeyMessage(
            group=self.tree.name, epoch=self._take_epoch(), departed=[member_id]
        )
        self._refresh_and_wrap(survivors, message)
        return message

    # ------------------------------------------------------------------
    # batched rekeying (Section 2.1.1)
    # ------------------------------------------------------------------

    def rekey_batch(
        self,
        joins: Sequence[Tuple[str, Optional[KeyMaterial]]] = (),
        departures: Sequence[str] = (),
        force_root: bool = False,
        join_refresh: str = "random",
    ) -> RekeyMessage:
        """Process a batch of joins and departures in one rekey operation.

        Parameters
        ----------
        joins:
            ``(member_id, individual_key_or_None)`` pairs to admit.
        departures:
            Member ids to evict.  Must currently be in the tree.
        force_root:
            Refresh the root key even if no structural change touches it
            (used by composed servers that must roll the group key because
            of activity in a *different* partition).
        join_refresh:
            ``"random"`` (default) — fresh keys with child-wrapped
            distribution, the paper's baseline.  ``"owf"`` — ELK [PST01] /
            LKH+ style: on a **join-only** batch, pre-existing path keys
            are *advanced* one-way (``K' = H(K)``) so current members
            compute them locally and only the joiners' bootstrap wraps hit
            the wire.  Ignored (falls back to random) whenever the batch
            contains departures — an evicted member could advance a hash
            chain just as well as anyone.

        Returns
        -------
        RekeyMessage
            One message covering the whole batch.  Marked nodes shared by
            several paths are refreshed only once — the batching savings.
        """
        if join_refresh not in ("random", "owf"):
            raise ValueError("join_refresh must be 'random' or 'owf'")
        if join_refresh == "owf" and not departures and not force_root:
            return self._rekey_batch_owf(joins)
        message = RekeyMessage(group=self.tree.name, epoch=self._take_epoch())
        marked: Dict[str, Node] = {}

        with obs_tracing.span("mark") as mark_span:
            for member_id in departures:
                for node in self.tree.remove_member(member_id):
                    marked[node.node_id] = node
                message.departed.append(member_id)

            for member_id, key in joins:
                leaf = self.tree.add_member(member_id, key)
                for node in leaf.path_to_root()[1:]:
                    if node.node_id in marked:
                        # Every earlier marking covered its whole remaining
                        # path to the root, so this node's ancestors are
                        # already marked too — stop walking.  Turns mass-join
                        # marking from O(joins · depth) into roughly
                        # O(marked nodes).
                        break
                    marked[node.node_id] = node
                message.joined.append(member_id)

            # Removals may have spliced out previously marked nodes; drop them.
            live_marked = [
                node for node in marked.values() if self.tree._alive(node)
            ]
            if force_root and not any(node is self.tree.root for node in live_marked):
                live_marked.append(self.tree.root)
            mark_span.set("marked", len(live_marked))

        self._refresh_and_wrap(live_marked, message)
        return message

    def _rekey_batch_owf(
        self, joins: Sequence[Tuple[str, Optional[KeyMaterial]]]
    ) -> RekeyMessage:
        """Join-only batch with one-way key advancement (ELK/LKH+).

        Pre-existing path keys advance via ``K' = H(K)`` (zero multicast —
        members compute them); internal nodes created by leaf splits get
        fresh random keys wrapped under the displaced children; each
        joiner gets its whole path wrapped under its individual key.
        """
        message = RekeyMessage(group=self.tree.name, epoch=self._take_epoch())
        before = set(self.tree._nodes)
        marked: Dict[str, Node] = {}
        new_leaves: List[Node] = []
        for member_id, key in joins:
            leaf = self.tree.add_member(member_id, key)
            new_leaves.append(leaf)
            for node in leaf.path_to_root()[1:]:
                marked[node.node_id] = node
            message.joined.append(member_id)

        joining_leaf_ids = {leaf.node_id for leaf in new_leaves}
        marked_list = sorted(marked.values(), key=lambda n: n.depth, reverse=True)
        for node in marked_list:
            if node.node_id in before:
                node.key = node.key.advance()
                message.advanced.append(node.key.handle)
            else:
                # A split-created joint: no previous version to advance
                # from; fresh key wrapped under the displaced (non-joining)
                # children — the joiners get it from their bootstrap.
                node.key = self.keygen.rekey(node.key)
                message.updated.append(node.key.handle)
                for child in node.children:
                    if child.node_id not in joining_leaf_ids:
                        message.encrypted_keys.append(wrap_key(child.key, node.key))
        for leaf in new_leaves:
            for node in leaf.path_to_root()[1:]:
                message.encrypted_keys.append(wrap_key(leaf.key, node.key))
        return message

    # ------------------------------------------------------------------
    # shared machinery
    # ------------------------------------------------------------------

    def _refresh_and_wrap(
        self, marked: Iterable[Node], message: RekeyMessage
    ) -> None:
        """Refresh every marked node, then wrap each new key under children.

        Children that are themselves marked contribute their *fresh* key as
        the wrapping key; members recover the keys bottom-up (deepest
        first), which :meth:`repro.members.member.Member.process_rekey`
        implements as a fixed-point scan.

        Deduplication preserves the caller's marking order (``set`` would
        iterate in address order), so equal-depth nodes refresh — and
        consume generator draws — in a deterministic sequence: identical
        batches yield byte-identical messages.
        """
        marked_list = sorted(
            dict.fromkeys(marked), key=lambda n: n.depth, reverse=True
        )
        with obs_tracing.span("generate", refreshed=len(marked_list)):
            for node in marked_list:
                node.key = self.keygen.rekey(node.key)
                message.updated.append(node.key.handle)
        with obs_tracing.span("wrap") as wrap_span:
            for node in marked_list:
                for child in node.children:
                    message.encrypted_keys.append(
                        wrap_key(child.key, node.key)
                    )
            wrap_span.set("wraps", len(message.encrypted_keys))

    def refresh_root(self) -> RekeyMessage:
        """Roll only the root (sub-group) key, wrapped under its children.

        Composed servers use this when another partition's departures force
        a group-key change but this partition's interior is untouched.
        """
        message = RekeyMessage(group=self.tree.name, epoch=self._take_epoch())
        self._refresh_and_wrap([self.tree.root], message)
        return message
