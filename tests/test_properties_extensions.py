"""Property-based tests for the extension schemes."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.material import KeyGenerator
from repro.keytree.marks import MarksKeySequence, MarksReceiver
from repro.keytree.probabilistic import HuffmanKeyTree
from repro.keytree.subsetcover import CompleteSubtreeCenter
from repro.testing.serialize import tree_from_dict, tree_to_dict
from repro.testing.tree import KeyTree


@settings(max_examples=40, deadline=None)
@given(
    depth=st.integers(min_value=2, max_value=8),
    interval=st.data(),
)
def test_marks_cover_partitions_exactly(depth, interval):
    sequence = MarksKeySequence(depth=depth, keygen=KeyGenerator(0))
    slots = sequence.slots
    start = interval.draw(st.integers(min_value=0, max_value=slots - 1))
    end = interval.draw(st.integers(min_value=start + 1, max_value=slots))
    covered = []
    for d, index in sequence.cover(start, end):
        span = 1 << (depth - d)
        covered.extend(range(index * span, index * span + span))
    assert sorted(covered) == list(range(start, end))
    assert len(sequence.cover(start, end)) <= 2 * depth
    # Receiver semantics match the cover.
    receiver = MarksReceiver(depth, sequence.grant(start, end))
    assert receiver.covered_slots() == list(range(start, end))


@settings(max_examples=30, deadline=None)
@given(
    depth=st.integers(min_value=2, max_value=8),
    revocations=st.data(),
)
def test_complete_subtree_cover_is_exact_complement(depth, revocations):
    center = CompleteSubtreeCenter(depth=depth, keygen=KeyGenerator(1))
    capacity = center.capacity
    count = revocations.draw(st.integers(min_value=0, max_value=capacity))
    revoked = set(
        revocations.draw(
            st.lists(
                st.integers(min_value=0, max_value=capacity - 1),
                min_size=count,
                max_size=count,
            )
        )
    )
    for slot in revoked:
        center.revoke(slot)
    covered = set()
    for d, index in center.cover():
        span = 1 << (depth - d)
        block = set(range(index * span, index * span + span))
        assert not block & covered
        covered |= block
    assert covered == set(range(capacity)) - revoked


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
