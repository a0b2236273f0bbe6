"""Property-based tests for the Huffman tree, serialization and absorb."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.material import KeyGenerator
from repro.keytree.probabilistic import HuffmanKeyTree
from repro.testing.serialize import tree_from_dict, tree_to_dict
from repro.testing.tree import KeyTree


@settings(max_examples=30, deadline=None)
@given(
    weights=st.lists(
        st.floats(min_value=0.01, max_value=1000.0, allow_nan=False),
        min_size=1,
        max_size=60,
    ),
    degree=st.integers(min_value=2, max_value=5),
)
def test_huffman_tree_contains_every_member_once(weights, degree):
    mapping = {f"m{i}": w for i, w in enumerate(weights)}
    tree = HuffmanKeyTree(mapping, degree=degree)
    leaves = [leaf.member_id for leaf in tree.root.iter_leaves()]
    assert sorted(leaves) == sorted(mapping)
    # Depths never exceed a chain of merges.
    assert all(tree.depth_of(m) <= len(weights) for m in mapping)


@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(st.booleans(), min_size=1, max_size=60),
    degree=st.integers(min_value=2, max_value=5),
)
def test_tree_serialization_roundtrips_under_churn(ops, degree):
    tree = KeyTree(degree=degree, keygen=KeyGenerator(2))
    alive = []
    counter = 0
    for join in ops:
        if join or not alive:
            tree.add_member(f"m{counter}")
            alive.append(f"m{counter}")
            counter += 1
        else:
            tree.remove_member(alive.pop(0))
    restored = tree_from_dict(tree_to_dict(tree))
    assert sorted(restored.members()) == sorted(tree.members())
    for node in tree.iter_nodes():
        assert restored.node(node.node_id).key == node.key
    restored.validate()


@settings(max_examples=25, deadline=None)
@given(count=st.integers(min_value=1, max_value=40), seed=st.integers(0, 1000))
def test_member_absorb_is_idempotent(count, seed):
    """Processing the same rekey message twice changes nothing."""
    from repro.members.member import Member
    from repro.testing.lkh import LkhRekeyer

    tree = KeyTree(degree=4, keygen=KeyGenerator(seed))
    rekeyer = LkhRekeyer(tree)
    members = [f"m{i}" for i in range(count)]
    rekeyer.rekey_batch(joins=[(m, None) for m in members])
    target = random.Random(seed).choice(members)
    member = Member(target, tree.leaf_of(target).key)
    for node in tree.path_of(target):
        member.install(node.key)
    message = rekeyer.rekey_batch(joins=[("late", None)])
    member.process_rekey(message)
    state_once = dict(member.held_versions())
    member.process_rekey(message)
    assert member.held_versions() == state_once
