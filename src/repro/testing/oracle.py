"""The reference key-tree implementation under a shipped server.

Every server builds its trees on the flat-array kernel
(:mod:`repro.keytree.flat`); :class:`~repro.keytree.tree.KeyTree` and
:class:`~repro.keytree.lkh.LkhRekeyer` — one object per node, the code a
reader checks against the paper — stay as the reference it must match
byte for byte.  :func:`with_object_trees` puts that reference under a
real server, so a test can drive the same churn through both and compare
payloads, breakdowns and dumps.  It is the only way to get such a server:
no constructor argument, flag, environment variable or snapshot field
selects the reference implementation.
"""

from __future__ import annotations

from repro.keytree.lkh import LkhRekeyer
from repro.keytree.serialize import tree_from_dict
from repro.server.base import GroupKeyServer


def _object_twin(tree, rekeyer) -> tuple:
    """``(KeyTree, LkhRekeyer)`` in the state of ``tree`` / ``rekeyer``."""
    keygen = tree.keygen
    counter = keygen._counter
    twin = tree_from_dict(tree.to_dict(), keygen=keygen)
    # KeyTree() drew a root key that the dump then replaced; the twin must
    # leave the stream where it found it.
    keygen._counter = counter
    twin._heap_slack = tree._heap_slack
    twin_rekeyer = LkhRekeyer(twin)
    twin_rekeyer._next_epoch = rekeyer._next_epoch
    return twin, twin_rekeyer


def with_object_trees(server: GroupKeyServer) -> GroupKeyServer:
    """Swap every key tree ``server`` holds for an object-tree twin.

    Meant for a server that has processed nothing yet: a twin is rebuilt
    from its tree's dump, which omits the dead heap entries a tree with a
    history carries, so one made later emits the same payloads but sheds
    those entries at other moments and its verbatim dumps can differ.
    Returns ``server``.
    """
    trees = [part for part in getattr(server, "partitions", ()) if hasattr(part, "tree")]
    if not trees:
        raise TypeError(f"no key trees known for {type(server).__name__}")
    for part in trees:
        part.tree, part.rekeyer = _object_twin(part.tree, part.rekeyer)
    return server
