"""Flat-array LKH kernel: the key tree as parallel index arrays.

This is the tree every server builds.  The object kernel
(:mod:`repro.testing.tree` / :mod:`repro.testing.lkh`), kept in
:mod:`repro.testing` as the reference this one must match, spends most of
a large batch in the cyclic garbage collector: every tree node is a
``Node`` with parent/children reference cycles plus a ``KeyMaterial``, so
a 1M-member tree keeps millions of tracked objects alive and every
collection generation walks them.  This module stores the same tree as a struct-of-arrays::

    index            0       1       2       3    ...
    _parent        [ -1,     0,      0,      1,   ... ]   parent index (-1 = none)
    _child         [ 1, 2, -1, -1,   3, 4, ...          ] degree slots per node
    _nchild        [  2,     2,      0,      0,   ... ]
    _ids           ["t/root","t/n1","member:a", ...     ] node id (None = freed slot)
    _member        [ None,   None,  "a",    None, ... ]   member id for leaves
    _versions      [  3,      1,     0,      2,   ... ]   key version
    _secrets       [ b"..",  b"..",  b"..",  b"..", ... ]   32-byte secret
    _leafcnt       [  9,      4,     1,      1,   ... ]
    _gen           [  0,      0,     2,      1,   ... ]   slot reuse generation

Every join, single or batched, is placed by one loop
(:meth:`FlatKeyTree._attach_members`).  Batch marking is index arithmetic
over ``_parent`` chains, key refresh stores each secret one
:meth:`~repro.crypto.material.KeyGenerator.fresh_secrets` call drew in
its slot, and wraps hand the child's and the node's slot objects to the
rows of the message's :class:`~repro.crypto.wrap.WrapBatch` — no
per-node or per-wrap objects are created, and no secret is copied.  A
slot's secret is one immutable ``bytes``: a leaf's is its member's own
``KeyMaterial.secret``, an internal node's the digest its last refresh
drew.  A refresh replaces the object and never mutates it, so a payload
row that still references the old one seals with the key as it was when
the row was added.

Byte-identity contract
----------------------
:class:`FlatKeyTree` + :class:`FlatRekeyer` replicate the object kernel's
*observable draw sequence* exactly — same ``_seq_value`` tiebreak draws
(including the draws consumed by re-keying stale heap entries at pop
time), same :class:`~repro.crypto.material.KeyGenerator` counter draws,
same marking insertion order, same stable depth-descending refresh order,
and same child slot order — so identical operation sequences yield
byte-identical :class:`~repro.crypto.wrap.RekeyMessage` payloads
(ciphertexts included) and identical serialized dumps.  The differential
battery in ``tests/test_keytree_flat_differential.py`` enforces this on
hypothesis-generated churn traces and golden fixtures; treat any change
that battery rejects as a protocol change, not an optimization.

Slot numbers are private.  Nothing observable goes by them — dumps,
payloads, node ids, ``_seq_value`` and heap pop order go by node id,
depth and sequence number — which is what lets a freed slot be reused
and a sparse tree renumber its slots between batches
(:meth:`FlatKeyTree._compact`).

One deliberate narrowing versus the object kernel: an individual key
passed to :meth:`FlatKeyTree.add_member` must carry
``key_id == "member:<member_id>"`` (every server in the repository does
this).  The flat layout stores one id per slot, so a leaf whose key id
differs from its node id is rejected instead of silently diverging.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
from typing import Collection, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.crypto.material import (
    KEY_SIZE,
    KeyGenerator,
    KeyMaterial,
    advance_secret,
)
from repro.crypto.wrap import RekeyMessage
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing

NIL = -1
ROOT = 0
#: The key-tree dump format; the reference tree's dumps use it too, so
#: dumps interchange between the two kernels.
FORMAT_VERSION = 1

#: The attachment heaps shed their dead entries (see
#: :meth:`FlatKeyTree._shed_dead_candidates`) once they hold more than
#: ``HEAP_SHED_RATIO`` entries per live node, ``HEAP_SHED_FLOOR`` nodes
#: being allowed for on top: on a tree that small a scan costs more than
#: the entries it frees.  A dead entry pins its heap tuple and, in the
#: reference tree, its ``Node``, child list and key — objects the
#: collector walks — so the ratio is kept tight: at 1.25 the scans are 4%
#: of a cost-only epoch at N = 32768 (one an epoch on the 2.5k-member
#: S-tree, one in fifty on the L-tree); at 1.5 they are half that and the
#: collector's heap is 14% larger.
HEAP_SHED_RATIO = 1.25
HEAP_SHED_FLOOR = 64

#: Between batches a tree renumbers its live slots densely (see
#: :meth:`FlatKeyTree._compact`) once more than ``SLOT_COMPACT_RATIO``
#: slots per live one are free, ``SLOT_COMPACT_FLOOR`` being allowed for
#: on top.  Freed slots are reused before the arrays grow, so only a mass
#: departure gets there — the two-partition server's S-tree after the
#: group it was set up with has migrated — and without this every column
#: stays the size of the largest membership the tree ever held.
SLOT_COMPACT_RATIO = 3
SLOT_COMPACT_FLOOR = 1024

#: The per-slot columns that hold no slot numbers (``_parent`` and
#: ``_child`` do).
_PLAIN_COLUMNS = (
    "_nchild", "_ids", "_member", "_versions", "_secrets", "_leafcnt",
    "_depthv", "_gen",
)


@contextlib.contextmanager
def _gc_paused():
    """Pause cyclic collection for the duration of a batch.

    A large batch is an allocation burst — wrap records, heap entries,
    marking dicts — in which everything allocated stays referenced until
    the message is returned, so collections triggered mid-batch scan
    millions of live objects and reclaim nothing (measured ~5s of a 1M
    build).  Refcounting still frees the real garbage; only the cycle
    detector is deferred to the caller's next allocation.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class FlatNodeView:
    """A read-only :class:`~repro.keytree.node.Node`-shaped view of a slot.

    Views are created on demand for the API surfaces that want node
    objects (``path_of``, ``root``, validation helpers); the hot batch
    paths never build them.  A view names a slot, and slot numbers are
    private to the tree (a freed slot is reused, compaction renumbers the
    live ones): read a view before the next batch, do not keep it.
    """

    __slots__ = ("tree", "index")

    def __init__(self, tree: "FlatKeyTree", index: int) -> None:
        self.tree = tree
        self.index = index

    @property
    def node_id(self) -> str:
        return self.tree._ids[self.index]

    @property
    def member_id(self) -> Optional[str]:
        return self.tree._member[self.index]

    @property
    def is_leaf(self) -> bool:
        return self.tree._member[self.index] is not None

    @property
    def is_root(self) -> bool:
        return self.tree._parent[self.index] == NIL

    @property
    def key(self) -> KeyMaterial:
        tree = self.tree
        # Unvalidated: secrets in the slot arrays are KEY_SIZE by
        # construction, and per-receiver delivery builds one KeyMaterial
        # per held path node.
        return KeyMaterial._trusted(
            tree._ids[self.index],
            tree._versions[self.index],
            tree._secrets[self.index],
        )

    @property
    def leaf_count(self) -> int:
        self.tree._refresh_leafcnt()
        return self.tree._leafcnt[self.index]

    @property
    def parent(self) -> Optional["FlatNodeView"]:
        parent = self.tree._parent[self.index]
        return None if parent == NIL else FlatNodeView(self.tree, parent)

    @property
    def children(self) -> List["FlatNodeView"]:
        tree = self.tree
        base = self.index * tree.degree
        return [
            FlatNodeView(tree, tree._child[slot])
            for slot in range(base, base + tree._nchild[self.index])
        ]

    @property
    def depth(self) -> int:
        return self.tree._depthv[self.index]

    def path_to_root(self) -> List["FlatNodeView"]:
        tree = self.tree
        parent = tree._parent
        path = [self]
        node = parent[self.index]
        while node != NIL:
            path.append(FlatNodeView(tree, node))
            node = parent[node]
        return path

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FlatNodeView)
            and other.tree is self.tree
            and other.index == self.index
        )

    def __hash__(self) -> int:
        return hash((id(self.tree), self.index))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        member = self.tree._member[self.index]
        kind = (
            f"leaf:{member}"
            if member is not None
            else f"internal[{self.tree._nchild[self.index]}]"
        )
        return f"<FlatNode {self.node_id} {kind} leaves={self.leaf_count}>"


class FlatKeyTree:
    """A balanced d-ary logical key tree over flat arrays.

    Drop-in structural replacement for
    :class:`~repro.testing.tree.KeyTree`: same constructor signature,
    same query/mutation API (node-valued methods return
    :class:`FlatNodeView` records), same serialized dump format, and the
    byte-identity contract described in the module docstring.
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
        self._nil_row = (NIL,) * degree
        root_id = f"{name}/root"
        # Slot arrays; slot 0 is always the root (never freed).
        self._parent: List[int] = [NIL]
        self._child: List[int] = list(self._nil_row)
        self._nchild: List[int] = [0]
        self._ids: List[Optional[str]] = [root_id]
        self._member: List[Optional[str]] = [None]
        self._versions: List[int] = [0]
        self._secrets: List[Optional[bytes]] = [self.keygen.fresh_secret()]
        self._leafcnt: List[int] = [0]
        # Leaf counts are not on any payload-visible path, so they are
        # maintained lazily: structural edits mark them stale and
        # _refresh_leafcnt() recomputes the whole array in one O(n) pass
        # on the next read, instead of an O(depth) ancestor walk per edit.
        self._leafcnt_fresh = True
        # Exact depth per slot, maintained at every structural edit: the
        # heaps' lazy revalidation compares entry depth against current
        # depth on every pop, and an O(1) array read there replaces an
        # O(depth) parent walk on the hottest path in a bulk join.
        self._depthv: List[int] = [0]
        self._gen: List[int] = [0]
        self._free: List[int] = []
        self._index: Dict[str, int] = {root_id: ROOT}
        self._member_leaf: Dict[str, int] = {}
        # Lazily-validated attachment heaps, exactly as in KeyTree: entries
        # are (depth, seq, slot, slot_generation); stale entries re-key at
        # pop time, consuming the same sequence draws the object tree would.
        self._open_internal: List[tuple] = [(0, self._next_seq(), ROOT, 0)]
        self._split_candidates: List[tuple] = []
        self._heap_slack = HEAP_SHED_FLOOR

    def _next_seq(self) -> int:
        value = self._seq_value
        self._seq_value += 1
        return value

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._member_leaf)

    def __contains__(self, member_id: str) -> bool:
        return member_id in self._member_leaf

    def members(self) -> List[str]:
        return list(self._member_leaf)

    @property
    def root(self) -> FlatNodeView:
        return FlatNodeView(self, ROOT)

    def leaf_of(self, member_id: str) -> FlatNodeView:
        try:
            return FlatNodeView(self, self._member_leaf[member_id])
        except KeyError:
            raise KeyError(
                f"member {member_id!r} is not in tree {self.name!r}"
            ) from None

    def path_of(self, member_id: str) -> List[FlatNodeView]:
        return self.leaf_of(member_id).path_to_root()

    def node(self, node_id: str) -> FlatNodeView:
        try:
            return FlatNodeView(self, self._index[node_id])
        except KeyError:
            raise KeyError(f"no node {node_id!r} in tree {self.name!r}") from None

    def members_under(
        self, node_id: str, built: Dict[int, List[str]]
    ) -> Optional[List[str]]:
        """The members at the leaves under node ``node_id`` (None: no such
        node here).  ``built`` keeps every list made, by slot, across the
        calls for one payload: LKH wraps deepest-first, so a node's
        children are usually built already.  Callers only read the lists.
        """
        idx = self._index.get(node_id)
        if idx == ROOT:
            return list(self._member_leaf)
        return None if idx is None else self._members_under(idx, built)

    def _members_under(self, idx: int, built: Dict[int, List[str]]) -> List[str]:
        members, under = self._member, built.get(idx)
        if members[idx] is not None:
            return [members[idx]]
        if under is None:
            under = built[idx] = []
            base = idx * self.degree
            for child in self._child[base : base + self._nchild[idx]]:
                if members[child] is not None:
                    under.append(members[child])
                else:
                    under.extend(self._members_under(child, built))
        return under

    def height(self) -> int:
        if not self._member_leaf:
            return 0
        return max(self._depthv[leaf] for leaf in self._member_leaf.values())

    def iter_nodes(self) -> Iterator[FlatNodeView]:
        """Every node currently in the tree, preorder."""
        child = self._child
        nchild = self._nchild
        degree = self.degree
        stack = [ROOT]
        while stack:
            idx = stack.pop()
            yield FlatNodeView(self, idx)
            base = idx * degree
            stack.extend(
                child[slot] for slot in range(base + nchild[idx] - 1, base - 1, -1)
            )

    def internal_nodes(self) -> List[FlatNodeView]:
        return [view for view in self.iter_nodes() if not view.is_leaf]

    def _walk_depth(self, idx: int) -> int:
        """Ground-truth depth by parent walk; ``validate()`` checks the
        maintained ``_depthv`` array against this."""
        parent = self._parent
        depth = 0
        node = parent[idx]
        while node != NIL:
            depth += 1
            node = parent[node]
        return depth

    # ------------------------------------------------------------------
    # slot management
    # ------------------------------------------------------------------

    def _alloc(
        self,
        node_id: str,
        version: int,
        secret: bytes,
        member_id: Optional[str],
    ) -> int:
        free = self._free
        if free:
            idx = free.pop()
            self._parent[idx] = NIL
            self._nchild[idx] = 0
            self._ids[idx] = node_id
            self._member[idx] = member_id
            self._versions[idx] = version
            self._leafcnt[idx] = 1 if member_id is not None else 0
            self._depthv[idx] = 0  # caller sets the real depth on attach
            self._secrets[idx] = secret
        else:
            idx = len(self._ids)
            self._parent.append(NIL)
            self._child.extend(self._nil_row)
            self._nchild.append(0)
            self._ids.append(node_id)
            self._member.append(member_id)
            self._versions.append(version)
            self._secrets.append(secret)
            self._leafcnt.append(1 if member_id is not None else 0)
            self._depthv.append(0)
            self._gen.append(0)
        self._index[node_id] = idx
        return idx

    def _free_slot(self, idx: int) -> None:
        del self._index[self._ids[idx]]
        self._ids[idx] = None
        self._member[idx] = None
        self._secrets[idx] = None
        self._gen[idx] += 1  # invalidates every outstanding heap entry
        self._free.append(idx)

    def _add_child(self, parent: int, child: int) -> None:
        self._child[parent * self.degree + self._nchild[parent]] = child
        self._nchild[parent] += 1
        self._parent[child] = parent
        self._leafcnt_fresh = False

    def _remove_child(self, parent: int, child: int) -> None:
        child_slots = self._child
        base = parent * self.degree
        count = self._nchild[parent]
        slot = base
        while child_slots[slot] != child:
            slot += 1
        for position in range(slot, base + count - 1):
            child_slots[position] = child_slots[position + 1]
        child_slots[base + count - 1] = NIL
        self._nchild[parent] = count - 1
        self._parent[child] = NIL
        self._leafcnt_fresh = False

    def _refresh_leafcnt(self) -> None:
        if self._leafcnt_fresh:
            return
        leafcnt = self._leafcnt
        member = self._member
        child = self._child
        nchild = self._nchild
        degree = self.degree
        # Children are assigned higher slot... not necessarily: freed slots
        # are reused, so compute bottom-up with an explicit postorder stack.
        stack = [(ROOT, False)]
        while stack:
            idx, expanded = stack.pop()
            if member[idx] is not None:
                leafcnt[idx] = 1
                continue
            base = idx * degree
            children = child[base : base + nchild[idx]]
            if expanded:
                leafcnt[idx] = sum(leafcnt[c] for c in children)
            else:
                stack.append((idx, True))
                stack.extend((c, False) for c in children)
        self._leafcnt_fresh = True

    def _trim_slots(self) -> None:
        """Between batches only — never where a loop holds slot numbers
        in locals: give the slot arrays back once most of them are free."""
        if len(self._free) > (
            SLOT_COMPACT_RATIO * len(self._index) + SLOT_COMPACT_FLOOR
        ):
            self._compact()

    def _compact(self) -> None:
        """Renumber the live slots densely, in slot order.

        Every column, the id index and the member map are rebuilt (a dict
        does not shrink on its own) and the free list is emptied; slot
        numbers being private, nothing observable moves.  The heaps are
        remapped entry for entry, array order kept: entries compare on
        ``(depth, seq)`` alone, ``seq`` being unique.  Dead entries stay
        where they are, because the shed rule counts them, under a
        generation no slot will ever carry.
        """
        live = [idx for idx, node_id in enumerate(self._ids) if node_id is not None]
        # One spare entry at the end, so that remap[NIL] is NIL.
        remap = [NIL] * (len(self._ids) + 1)
        for new, old in enumerate(live):
            remap[old] = new
        degree = self.degree
        parent, child, gens = self._parent, self._child, self._gen
        for heap in (self._open_internal, self._split_candidates):
            heap[:] = [
                (depth, seq, remap[idx], gen)
                if gens[idx] == gen
                else (depth, seq, ROOT, NIL)
                for depth, seq, idx, gen in heap
            ]
        self._parent = [remap[parent[old]] for old in live]
        self._child = [
            remap[entry]
            for old in live
            for entry in child[old * degree : (old + 1) * degree]
        ]
        for name in _PLAIN_COLUMNS:
            column = getattr(self, name)
            setattr(self, name, [column[old] for old in live])
        self._index = {node_id: remap[old] for node_id, old in self._index.items()}
        self._member_leaf = {
            member_id: remap[old] for member_id, old in self._member_leaf.items()
        }
        self._free = []

    # ------------------------------------------------------------------
    # structural mutation (draw-for-draw with KeyTree)
    # ------------------------------------------------------------------

    def _fresh_internal(self) -> int:
        node_id = f"{self.name}/n{self._next_seq()}"
        return self._alloc(node_id, 0, self.keygen.fresh_secret(), None)

    def add_member(
        self, member_id: str, key: Optional[KeyMaterial] = None
    ) -> FlatNodeView:
        return FlatNodeView(self, self._add_member_slot(member_id, key))

    def _add_member_slot(
        self, member_id: str, key: Optional[KeyMaterial] = None
    ) -> int:
        """Insert a leaf for ``member_id``, a batch of one; returns its slot."""
        # Unpacking runs the generator to its end, write-backs included.
        ((__, leaf),) = self._attach_members(((member_id, key),))
        return leaf

    def _attach_members(
        self, joins: Sequence[Tuple[str, Optional[KeyMaterial]]]
    ) -> Iterator[Tuple[str, int]]:
        """Give each ``(member_id, key)`` join a leaf, in order; yields
        ``(member_id, slot)`` after each attach.

        The tree's one placement rule: a new leaf goes under the shallowest
        open internal node (earliest noted first on a tie), else it splits
        the shallowest leaf.  ``key`` is the member's individual key, id
        ``"member:<member_id>"``; None draws a fresh secret at version 0.
        The batch rekeyer marks each new leaf's path between yields, so
        marking order is join order.  The sequence counter is held in a
        local: it is written back around a split and when the generator
        ends, on an error too, so nothing may draw from it between yields.
        """
        if not joins:
            return
        ids, parents, member = self._ids, self._parent, self._member
        child, nchild, versions = self._child, self._nchild, self._versions
        leafcnt, depthv, gens = self._leafcnt, self._depthv, self._gen
        secrets, index, free = self._secrets, self._index, self._free
        member_leaf, nil_row, degree = self._member_leaf, self._nil_row, self.degree
        open_heap, split_heap = self._open_internal, self._split_candidates
        heappush, heappop = heapq.heappush, heapq.heappop
        heapreplace = heapq.heapreplace
        self._leafcnt_fresh = False
        seq = self._seq_value
        try:
            for member_id, key in joins:
                if member_id in member_leaf:
                    raise ValueError(
                        f"member {member_id!r} already in tree {self.name!r}"
                    )
                leaf_id = f"member:{member_id}"
                if key is None:
                    version, secret = 0, self.keygen.fresh_secret()
                elif key.key_id != leaf_id:
                    raise ValueError(
                        f"flat kernel requires individual key id {leaf_id!r}, "
                        f"got {key.key_id!r}"
                    )
                else:
                    # The key's own id string, not an equal copy: the
                    # registration already holds it for the member's life.
                    leaf_id, version, secret = key.key_id, key.version, key.secret
                if free:
                    # _alloc's reuse branch: the slot's generation was bumped
                    # when it was freed, so its old heap entries are dead.
                    leaf = free.pop()
                    parents[leaf] = NIL
                    nchild[leaf] = 0
                    ids[leaf] = leaf_id
                    member[leaf] = member_id
                    versions[leaf] = version
                    leafcnt[leaf] = 1
                    depthv[leaf] = 0
                    secrets[leaf] = secret
                else:
                    leaf = len(ids)
                    parents.append(NIL)
                    child.extend(nil_row)
                    nchild.append(0)
                    ids.append(leaf_id)
                    member.append(member_id)
                    versions.append(version)
                    secrets.append(secret)
                    leafcnt.append(1)
                    depthv.append(0)
                    gens.append(0)
                index[leaf_id] = leaf
                while open_heap:
                    depth, __, target, gen = open_heap[0]
                    if (
                        gens[target] != gen
                        or member[target] is not None
                        or nchild[target] >= degree
                    ):
                        heappop(open_heap)
                        continue
                    actual = depthv[target]
                    if actual != depth:
                        # Stale depth: re-key the entry, one sequence draw.
                        heapreplace(open_heap, (actual, seq, target, gen))
                        seq += 1
                        continue
                    heappop(open_heap)
                    count = nchild[target]
                    child[target * degree + count] = leaf
                    nchild[target] = count + 1
                    parents[leaf] = target
                    depthv[leaf] = depth + 1
                    # The target stays open while a child slot remains; the
                    # new leaf is a split candidate.
                    if count + 1 < degree:
                        heappush(open_heap, (depth, seq, target, gen))
                        seq += 1
                    heappush(split_heap, (depth + 1, seq, leaf, gens[leaf]))
                    seq += 1
                    break
                else:  # no open internal node: split the shallowest leaf
                    self._seq_value = seq
                    victim = self._pop_split_candidate()
                    seq = self._seq_value
                    if victim is None:
                        raise RuntimeError("key tree has no attachment point")
                    self._split_leaf(victim[0], leaf, victim[1])
                    seq = self._seq_value
                member_leaf[member_id] = leaf
                self._trim_heaps()
                yield member_id, leaf
        finally:
            self._seq_value = seq
        obs_metrics.inc("keytree.add_member", len(joins))

    def _split_leaf(self, victim: int, leaf: int, victim_depth: int) -> None:
        parent = self._parent[victim]
        assert parent != NIL, "split candidate cannot be the root"
        self._remove_child(parent, victim)
        joint = self._fresh_internal()
        self._add_child(joint, victim)
        self._add_child(joint, leaf)
        self._add_child(parent, joint)
        depthv = self._depthv
        depthv[joint] = victim_depth
        depthv[victim] = depthv[leaf] = victim_depth + 1
        # The joint takes the victim's old slot; both leaves sit below it.
        # _note_candidates inlined (same draw order): the joint is internal
        # (open note iff a child slot remains — degree 2 fills it), the
        # victim and new leaf are member leaves.
        seq = self._seq_value
        gens = self._gen
        if self._nchild[joint] < self.degree:
            heapq.heappush(
                self._open_internal, (victim_depth, seq, joint, gens[joint])
            )
            seq += 1
        heapq.heappush(
            self._split_candidates,
            (victim_depth + 1, seq, victim, gens[victim]),
        )
        heapq.heappush(
            self._split_candidates,
            (victim_depth + 1, seq + 1, leaf, gens[leaf]),
        )
        self._seq_value = seq + 2

    def _note_candidates(self, idx: int, depth: Optional[int] = None) -> None:
        if depth is None:
            depth = self._depthv[idx]
        if self._member[idx] is not None:
            heapq.heappush(
                self._split_candidates,
                (depth, self._next_seq(), idx, self._gen[idx]),
            )
        elif self._nchild[idx] < self.degree:
            heapq.heappush(
                self._open_internal,
                (depth, self._next_seq(), idx, self._gen[idx]),
            )

    def _trim_heaps(self) -> None:
        if len(self._split_candidates) + len(self._open_internal) > (
            HEAP_SHED_RATIO * (len(self._index) + self._heap_slack)
        ):
            self._shed_dead_candidates()

    def _shed_dead_candidates(self) -> None:
        """:meth:`repro.testing.tree.KeyTree._shed_dead_candidates`, entry
        for entry: checked after the same operations, same survivors, same
        ``heapify`` — so the heap arrays (which the dumps list verbatim)
        stay equal across kernels.  Dead here is a slot-generation
        mismatch."""
        gens = self._gen
        for heap in (self._open_internal, self._split_candidates):
            # In place: _attach_members holds the lists in locals.
            heap[:] = [entry for entry in heap if gens[entry[2]] == entry[3]]
            heapq.heapify(heap)
        survived = len(self._open_internal) + len(self._split_candidates)
        self._heap_slack = max(HEAP_SHED_FLOOR, survived - len(self._index))

    def _pop_split_candidate(self) -> Optional[Tuple[int, int]]:
        """Shallowest live leaf slot as ``(slot, depth)``."""
        heap = self._split_candidates
        gens = self._gen
        member = self._member
        parent = self._parent
        depthv = self._depthv
        while heap:
            depth, __, idx, gen = heap[0]
            if gens[idx] != gen or member[idx] is None or parent[idx] == NIL:
                heapq.heappop(heap)
                continue
            actual = depthv[idx]
            if actual != depth:
                heapq.heapreplace(heap, (actual, self._next_seq(), idx, gen))
                continue
            heapq.heappop(heap)
            # The leaf stays in the tree under a new internal parent.
            self._note_candidates(idx, depth)
            return idx, depth
        return None

    def remove_member(self, member_id: str) -> List[FlatNodeView]:
        return [
            FlatNodeView(self, idx)
            for idx in self._remove_member_slot(member_id)
        ]

    def _remove_member_slot(self, member_id: str, count: bool = True) -> List[int]:
        """Detach the member's leaf; surviving ancestor slots, deepest first."""
        leaf = self._member_leaf.pop(member_id, None)
        if leaf is None:
            raise KeyError(f"member {member_id!r} is not in tree {self.name!r}")
        parent = self._parent[leaf]
        assert parent != NIL, "member leaf must have a parent"
        self._remove_child(parent, leaf)
        self._free_slot(leaf)

        parents = self._parent
        if parent != ROOT and self._nchild[parent] == 1:
            # Splice out the now-unary internal node.
            only_child = self._child[parent * self.degree]
            grand = parents[parent]
            assert grand != NIL
            self._remove_child(parent, only_child)
            self._remove_child(grand, parent)
            self._add_child(grand, only_child)
            self._free_slot(parent)
            # The spliced-in subtree moves up one level; removals are rare
            # and the subtree is typically a leaf or a small cluster.
            depthv = self._depthv
            member = self._member
            child_slots = self._child
            nchild = self._nchild
            degree = self.degree
            stack = [only_child]
            while stack:
                idx = stack.pop()
                depthv[idx] -= 1
                if member[idx] is None:
                    base = idx * degree
                    stack.extend(child_slots[base : base + nchild[idx]])
            self._note_candidates(grand)
            self._note_candidates(only_child)
            start = parents[only_child]
        else:
            self._note_candidates(parent)
            start = parent
        survivors = []
        node = start
        while node != NIL:
            survivors.append(node)
            node = parents[node]
        self._trim_heaps()
        if count:
            obs_metrics.inc("keytree.remove_member")
        return survivors

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; ``AssertionError`` on violation.

        Mirrors :meth:`KeyTree.validate` and additionally checks the
        flat-layout bookkeeping: the free list and the live slots must
        partition the slot space, the id index must match the ids array
        exactly, and every live slot must hold a ``KEY_SIZE``-byte
        ``bytes`` secret, never a mutable buffer.
        """
        self._refresh_leafcnt()
        degree = self.degree
        reachable: Dict[str, int] = {}
        stack = [ROOT]
        while stack:
            idx = stack.pop()
            node_id = self._ids[idx]
            assert node_id is not None, f"reachable slot {idx} is freed"
            assert node_id not in reachable, f"duplicate node id {node_id}"
            reachable[node_id] = idx
            secret = self._secrets[idx]
            assert type(secret) is bytes and len(secret) == KEY_SIZE, (
                f"node {node_id} secret is not {KEY_SIZE} bytes"
            )
            count = self._nchild[idx]
            assert count <= degree, f"node {node_id} has {count} > d children"
            base = idx * degree
            children = self._child[base : base + count]
            if self._member[idx] is not None:
                assert count == 0, f"leaf {node_id} has children"
                assert self._leafcnt[idx] == 1
            else:
                if idx != ROOT:
                    assert count >= 2, f"non-root internal node {node_id} is unary"
                assert self._leafcnt[idx] == sum(
                    self._leafcnt[c] for c in children
                ), f"leaf_count stale at {node_id}"
            for child in children:
                assert self._parent[child] == idx, (
                    f"child {self._ids[child]} does not point back to {node_id}"
                )
            stack.extend(reversed(children))
        live = {
            node_id: idx
            for idx, node_id in enumerate(self._ids)
            if node_id is not None
        }
        assert reachable == live, "live-slot set out of sync with reachability"
        assert self._index == live, "node-id index out of sync"
        leaves = {
            self._member[idx]: idx
            for idx in live.values()
            if self._member[idx] is not None
        }
        assert leaves == self._member_leaf, "member-to-leaf map out of sync"
        for node_id, idx in reachable.items():
            assert self._depthv[idx] == self._walk_depth(idx), (
                f"maintained depth stale at {node_id}"
            )
        free = set(self._free)
        assert len(free) == len(self._free), "free list has duplicates"
        assert free.isdisjoint(live.values()), "freed slot is reachable"
        assert free | set(live.values()) == set(range(len(self._ids))), (
            "slots neither live nor free"
        )

    def is_balanced(self, slack: int = 1) -> bool:
        if self.size <= 1:
            return True
        import math

        optimal = math.ceil(math.log(self.size, self.degree))
        return self.height() <= optimal + slack

    # ------------------------------------------------------------------
    # serialization (format-identical to repro.testing.serialize)
    # ------------------------------------------------------------------

    def _node_to_dict(self, idx: int) -> Dict:
        data: Dict = {
            "id": self._ids[idx],
            "version": self._versions[idx],
            "secret": self._secrets[idx].hex(),
        }
        if self._member[idx] is not None:
            data["member"] = self._member[idx]
        else:
            child_base = idx * self.degree
            data["children"] = [
                self._node_to_dict(self._child[slot])
                for slot in range(child_base, child_base + self._nchild[idx])
            ]
        return data

    def _heap_to_list(self, heap: List[tuple]) -> List[List]:
        gens = self._gen
        return [
            [depth, seq, self._ids[idx]]
            for depth, seq, idx, gen in heap
            if gens[idx] == gen
        ]

    def to_dict(self) -> Dict:
        """Serialize to the exact :func:`repro.testing.serialize.tree_to_dict`
        format — object- and flat-kernel dumps are interchangeable."""
        return {
            "format": FORMAT_VERSION,
            "name": self.name,
            "degree": self.degree,
            "seq": self._seq_value,
            "root": self._node_to_dict(ROOT),
            "open_internal": self._heap_to_list(self._open_internal),
            "split_candidates": self._heap_to_list(self._split_candidates),
        }

    def _build_from_dict(self, data: Dict, parent: Optional[int]) -> int:
        member = data.get("member")
        node_id = data["id"]
        version = int(data["version"])
        secret = bytes.fromhex(data["secret"])
        if len(secret) != KEY_SIZE:
            raise ValueError(
                f"node {node_id!r}: secret is {len(secret)} bytes, not {KEY_SIZE}"
            )
        if version < 0:
            raise ValueError(f"node {node_id!r}: version {version} is negative")
        idx = self._alloc(node_id, version, secret, member)
        if member is not None:
            self._member_leaf[member] = idx
        if parent is not None:
            self._add_child(parent, idx)
            self._depthv[idx] = self._depthv[parent] + 1
        for child_data in data.get("children", ()):
            self._build_from_dict(child_data, idx)
        return idx

    def _heap_from_list(self, entries: List[List]) -> List[tuple]:
        index = self._index
        gens = self._gen
        heap = []
        for depth, seq, node_id in entries:
            idx = index.get(node_id)
            if idx is None:
                continue
            heap.append((int(depth), int(seq), idx, gens[idx]))
        heapq.heapify(heap)
        return heap

    @classmethod
    def from_dict(
        cls, data: Dict, keygen: Optional[KeyGenerator] = None
    ) -> "FlatKeyTree":
        """Rebuild from :meth:`to_dict` (or object-kernel
        :func:`~repro.testing.serialize.tree_to_dict`) output."""
        if data.get("format") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported key-tree dump format: {data.get('format')!r}"
            )
        tree = cls(degree=int(data["degree"]), keygen=keygen, name=data["name"])
        # Reset the constructor's root-only state and rebuild every slot
        # from the dump (slot numbering is internal, not part of the
        # format; preorder assignment is as good as any).
        for name in _PLAIN_COLUMNS + ("_parent", "_child", "_free"):
            setattr(tree, name, [])
        tree._index = {}
        tree._member_leaf = {}
        root_idx = tree._build_from_dict(data["root"], None)
        assert root_idx == ROOT
        if "open_internal" in data:
            tree._open_internal = tree._heap_from_list(data["open_internal"])
            tree._split_candidates = tree._heap_from_list(
                data["split_candidates"]
            )
        else:  # legacy dump: reseed from structure, like tree_from_dict
            tree._open_internal = []
            tree._split_candidates = []
            for idx in (view.index for view in tree.iter_nodes()):
                tree._note_candidates(idx)
        # Pin the counter last: the legacy reseed path consumes draws that
        # must not advance the restored value.
        tree._seq_value = int(data["seq"])
        tree.validate()
        return tree

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FlatKeyTree {self.name!r} d={self.degree} members={self.size} "
            f"height={self.height()}>"
        )


class FlatRekeyer:
    """LKH rekeying over a :class:`FlatKeyTree`.

    Mirrors :class:`~repro.testing.lkh.LkhRekeyer` operation for
    operation (see the module docstring's byte-identity contract); the
    hot loops run over the tree's arrays instead of node objects.
    """

    def __init__(
        self,
        tree: FlatKeyTree,
        keygen: Optional[KeyGenerator] = None,
    ) -> None:
        self.tree = tree
        self.keygen = keygen if keygen is not None else tree.keygen
        self._next_epoch = 1

    def _take_epoch(self) -> int:
        epoch = self._next_epoch
        self._next_epoch += 1
        return epoch

    # ------------------------------------------------------------------
    # individual operations
    # ------------------------------------------------------------------

    def join(
        self, member_id: str, key: Optional[KeyMaterial] = None
    ) -> Tuple[FlatNodeView, RekeyMessage]:
        tree = self.tree
        before = set(tree._index)
        leaf = tree._add_member_slot(member_id, key)
        message = RekeyMessage(
            group=tree.name, epoch=self._take_epoch(), joined=[member_id]
        )
        ids = tree._ids
        versions = tree._versions
        secrets = tree._secrets
        parents = tree._parent
        add = message.encrypted_keys.add
        leaf_id = ids[leaf]
        leaf_version = versions[leaf]
        leaf_secret = secrets[leaf]
        keygen = self.keygen
        node = parents[leaf]
        while node != NIL:
            node_id = ids[node]
            old_version = versions[node]
            old_secret = secrets[node]
            new_secret = keygen.fresh_secret()
            secrets[node] = new_secret
            new_version = old_version + 1
            versions[node] = new_version
            message.updated.append((node_id, new_version))
            if node_id in before:
                # Existing key: one wrap under the previous version.
                add(node_id, old_version, node_id, new_version, old_secret, new_secret)
            else:
                self._wrap_joint(add, node, skip=(leaf,))
            # The joiner bootstraps from its individual key.
            add(leaf_id, leaf_version, node_id, new_version, leaf_secret, new_secret)
            node = parents[node]
        if message.cost:
            obs_metrics.inc("crypto.wraps", message.cost)
        return FlatNodeView(tree, leaf), message

    def leave(self, member_id: str) -> RekeyMessage:
        tree = self.tree
        survivors = tree._remove_member_slot(member_id)
        message = RekeyMessage(
            group=tree.name, epoch=self._take_epoch(), departed=[member_id]
        )
        ids = tree._ids
        self._refresh_and_wrap([(ids[idx], idx) for idx in survivors], message)
        tree._trim_slots()
        return message

    # ------------------------------------------------------------------
    # batched rekeying
    # ------------------------------------------------------------------

    def rekey_batch(
        self,
        joins: Sequence[Tuple[str, Optional[KeyMaterial]]] = (),
        departures: Sequence[str] = (),
        force_root: bool = False,
        join_refresh: str = "random",
    ) -> RekeyMessage:
        if join_refresh not in ("random", "owf"):
            raise ValueError("join_refresh must be 'random' or 'owf'")
        with _gc_paused():
            if join_refresh == "owf" and not departures and not force_root:
                return self._rekey_batch_owf(joins)
            message = self._rekey_batch_mixed(joins, departures, force_root)
            self.tree._trim_slots()
            return message

    def _rekey_batch_mixed(
        self,
        joins: Sequence[Tuple[str, Optional[KeyMaterial]]],
        departures: Sequence[str],
        force_root: bool,
    ) -> RekeyMessage:
        tree = self.tree
        message = RekeyMessage(group=tree.name, epoch=self._take_epoch())
        ids = tree._ids
        index = tree._index
        # node_id -> slot at marking time; insertion order is the marking
        # order the refresh sort must preserve.  Liveness is re-checked
        # after all removals via the id index (a spliced-out node's id is
        # gone; a reused slot belongs to a different id), which is exactly
        # the object kernel's ``_alive`` identity test.
        marked: Dict[str, int] = {}

        with obs_tracing.span("mark") as mark_span:
            for member_id in departures:
                for idx in tree._remove_member_slot(member_id, count=False):
                    marked[ids[idx]] = idx
                message.departed.append(member_id)
            if departures:
                obs_metrics.inc("keytree.remove_member", len(departures))

            self._join_and_mark(joins, marked, message)

            # Removals may have spliced out previously marked nodes.
            live_marked = [
                (node_id, idx)
                for node_id, idx in marked.items()
                if index.get(node_id) == idx
            ]
            if force_root and all(idx != ROOT for __, idx in live_marked):
                live_marked.append((ids[ROOT], ROOT))
            mark_span.set("marked", len(live_marked))

        self._refresh_and_wrap(live_marked, message)
        return message

    def _rekey_batch_owf(
        self, joins: Sequence[Tuple[str, Optional[KeyMaterial]]]
    ) -> RekeyMessage:
        tree = self.tree
        message = RekeyMessage(group=tree.name, epoch=self._take_epoch())
        before = set(tree._index)
        ids = tree._ids
        versions = tree._versions
        secrets = tree._secrets
        parents = tree._parent
        marked: Dict[str, int] = {}  # join-only: no splices, slots stay live
        self._join_and_mark(joins, marked, message)
        member_leaf = tree._member_leaf
        new_leaves = [member_leaf[member_id] for member_id in message.joined]
        joining = set(new_leaves)
        depths = tree._depthv
        marked_list = sorted(
            marked.items(), key=lambda item: depths[item[1]], reverse=True
        )
        add = message.encrypted_keys.add
        keygen = self.keygen
        for node_id, idx in marked_list:
            if node_id in before:
                # One-way advance: holders compute it locally, no wraps.
                secrets[idx] = advance_secret(secrets[idx])
                versions[idx] += 1
                message.advanced.append((node_id, versions[idx]))
            else:
                secrets[idx] = keygen.fresh_secret()
                versions[idx] += 1
                message.updated.append((node_id, versions[idx]))
                self._wrap_joint(add, idx, skip=joining)
        for leaf in new_leaves:
            leaf_id = ids[leaf]
            leaf_version = versions[leaf]
            leaf_secret = secrets[leaf]
            node = parents[leaf]
            while node != NIL:
                add(
                    leaf_id, leaf_version, ids[node], versions[node],
                    leaf_secret, secrets[node],
                )
                node = parents[node]
        if message.cost:
            obs_metrics.inc("crypto.wraps", message.cost)
        return message

    # ------------------------------------------------------------------
    # shared machinery
    # ------------------------------------------------------------------

    def _join_and_mark(
        self,
        joins: Sequence[Tuple[str, Optional[KeyMaterial]]],
        marked: Dict[str, int],
        message: RekeyMessage,
    ) -> None:
        """Attach ``joins`` and mark each new leaf's path into ``marked``,
        in join order.  A walk stops at the first marked node: a marked
        node's ancestors are marked already (a split only ever inserts a
        node above a leaf)."""
        tree = self.tree
        ids, parents = tree._ids, tree._parent
        joined = message.joined
        for member_id, leaf in tree._attach_members(joins):
            node = parents[leaf]
            while node != NIL:
                node_id = ids[node]
                if node_id in marked:
                    break
                marked[node_id] = node
                node = parents[node]
            joined.append(member_id)

    def _wrap_joint(self, add, joint: int, skip: Collection[int]) -> None:
        """Wrap a split-created joint's fresh key under each child slot not
        in ``skip`` — the displaced children; joiners get it through
        their own bootstrap wraps."""
        tree = self.tree
        ids, versions, secrets = tree._ids, tree._versions, tree._secrets
        base = joint * tree.degree
        for child in tree._child[base : base + tree._nchild[joint]]:
            if child not in skip:
                add(
                    ids[child], versions[child], ids[joint], versions[joint],
                    secrets[child], secrets[joint],
                )

    def _refresh_and_wrap(
        self, marked: Sequence[Tuple[str, int]], message: RekeyMessage
    ) -> None:
        """Refresh marked slots deepest-first, then wrap under children.

        ``marked`` is ``(node_id, slot)`` pairs in marking order; the
        stable depth-descending sort and the per-slot draw order replicate
        :meth:`LkhRekeyer._refresh_and_wrap` exactly.
        """
        tree = self.tree
        pairs = list(dict.fromkeys(marked))
        depths = tree._depthv
        pairs.sort(key=lambda pair: depths[pair[1]], reverse=True)

        versions = tree._versions
        secrets = tree._secrets
        updated = message.updated
        with obs_tracing.span("generate", refreshed=len(pairs)):
            fresh = self.keygen.fresh_secrets(len(pairs))
            for (node_id, idx), secret in zip(pairs, fresh):
                secrets[idx] = secret
                version = versions[idx] + 1
                versions[idx] = version
                updated.append((node_id, version))

        with obs_tracing.span("wrap") as wrap_span:
            ids = tree._ids
            child_slots = tree._child
            nchild = tree._nchild
            degree = tree.degree
            add = message.encrypted_keys.add
            for node_id, idx in pairs:
                payload_version = versions[idx]
                payload_secret = secrets[idx]
                child_base = idx * degree
                for slot in range(child_base, child_base + nchild[idx]):
                    child = child_slots[slot]
                    add(
                        ids[child], versions[child], node_id, payload_version,
                        secrets[child], payload_secret,
                    )
            wrap_span.set("wraps", message.cost)
        if message.cost:
            obs_metrics.inc("crypto.wraps", message.cost)

    def refresh_root(self) -> RekeyMessage:
        tree = self.tree
        message = RekeyMessage(group=tree.name, epoch=self._take_epoch())
        self._refresh_and_wrap([(tree._ids[ROOT], ROOT)], message)
        return message

