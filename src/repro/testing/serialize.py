"""Dumps of the reference :class:`~repro.testing.tree.KeyTree`.

The format is the one :meth:`~repro.keytree.flat.FlatKeyTree.to_dict`
writes (:data:`~repro.keytree.flat.FORMAT_VERSION`), so a dump moves
between the two kernels: :func:`repro.testing.oracle.with_object_trees`
builds its twins from one, and the differential tests compare them.  This
module dumps a :class:`KeyTree` to a plain dict (JSON-compatible; secrets
as hex) and rebuilds an operationally identical tree: same node ids, same
key versions, same members, and a resumed node-id counter so
post-restore node ids never collide with old ones.

The attachment heaps round-trip too — entries verbatim, dead nodes
dropped — so the restored tree makes *exactly* the attachment decisions
the live tree would have (equal-depth ties break on the same recorded
sequence numbers, and re-keying stale entries consumes the same counter
draws, keeping future node ids identical).  The crash-and-restore fault
path relies on this: a server restored mid-batch must re-derive the lost
batch bit-for-bit.

The dump contains every secret in the hierarchy.  Treat it like the key
server's master state: encrypt at rest.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

from repro.crypto.material import KeyGenerator, KeyMaterial
from repro.keytree.flat import FORMAT_VERSION
from repro.keytree.node import Node
from repro.testing.tree import KeyTree


def _node_to_dict(node: Node) -> Dict:
    data: Dict = {
        "id": node.node_id,
        "version": node.key.version,
        "secret": node.key.secret.hex(),
    }
    if node.is_leaf:
        data["member"] = node.member_id
    else:
        data["children"] = [_node_to_dict(child) for child in node.children]
    return data


def _node_from_dict(data: Dict) -> Node:
    key = KeyMaterial(
        key_id=data["id"],
        version=int(data["version"]),
        secret=bytes.fromhex(data["secret"]),
    )
    node = Node(data["id"], key, member_id=data.get("member"))
    for child_data in data.get("children", ()):
        node.add_child(_node_from_dict(child_data))
    return node


def _heap_to_list(heap: List[tuple], tree: KeyTree) -> List[List]:
    """Dump live heap entries as ``[depth, seq, node_id]`` triples.

    Entries pointing at dead (spliced-out) nodes are dropped: popping one
    only skips it, consuming no counter draws, so omitting them is
    behaviorally identical.  Stale-*depth* entries on live nodes are kept
    verbatim — re-keying those at pop time draws from the sequence
    counter, which must replay identically after a restore.
    """
    return [
        [depth, seq, node.node_id]
        for depth, seq, node in heap
        if tree._nodes.get(node.node_id) is node
    ]


def _heap_from_list(entries: List[List], tree: KeyTree) -> List[tuple]:
    heap = [
        (int(depth), int(seq), tree._nodes[node_id])
        for depth, seq, node_id in entries
        if node_id in tree._nodes
    ]
    heapq.heapify(heap)
    return heap


def tree_to_dict(tree: KeyTree) -> Dict:
    """Serialize ``tree`` (structure, keys, counters) to a plain dict."""
    return {
        "format": FORMAT_VERSION,
        "name": tree.name,
        "degree": tree.degree,
        "seq": tree._seq_value,
        "root": _node_to_dict(tree.root),
        "open_internal": _heap_to_list(tree._open_internal, tree),
        "split_candidates": _heap_to_list(tree._split_candidates, tree),
    }


def tree_from_dict(data: Dict, keygen: Optional[KeyGenerator] = None) -> KeyTree:
    """Rebuild a :class:`KeyTree` from :func:`tree_to_dict` output.

    Parameters
    ----------
    data:
        The serialized tree.
    keygen:
        The generator future rekeys should draw from (restored separately
        by the server snapshot; a fresh seeded one by default).

    The attachment heaps are restored entry-for-entry (dumps that carry
    them), so subsequent insertions attach exactly as they would have
    pre-restart; legacy dumps without heap entries fall back to reseeding
    the heaps from the structure, which balances equivalently but may
    break equal-depth ties differently than the pre-restart tree.
    """
    if data.get("format") != FORMAT_VERSION:
        raise ValueError(f"unsupported key-tree dump format: {data.get('format')!r}")
    tree = KeyTree(degree=int(data["degree"]), keygen=keygen, name=data["name"])
    tree.root = _node_from_dict(data["root"])
    tree._nodes = {node.node_id: node for node in tree.root.iter_subtree()}
    tree._member_leaf = {
        leaf.member_id: leaf for leaf in tree.root.iter_leaves()
    }
    if "open_internal" in data:
        tree._open_internal = _heap_from_list(data["open_internal"], tree)
        tree._split_candidates = _heap_from_list(data["split_candidates"], tree)
    else:  # legacy dump: reseed from structure
        tree._open_internal = []
        tree._split_candidates = []
        for node in tree.root.iter_subtree():
            tree._note_candidates(node)
    # Pin the counter last: the legacy reseed path consumes draws that
    # must not advance the restored value.
    tree._seq_value = int(data["seq"])
    tree.validate()
    return tree
