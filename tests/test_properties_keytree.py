"""Property-based tests (hypothesis) for the key-tree structures."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.material import KeyGenerator
from repro.testing.lkh import LkhRekeyer
from repro.testing.tree import KeyTree

# An operation stream: True = join a fresh member, False = remove the
# oldest surviving member (skipped when none exist).
op_streams = st.lists(st.booleans(), min_size=1, max_size=120)
degrees = st.integers(min_value=2, max_value=6)


@settings(max_examples=60, deadline=None)
@given(ops=op_streams, degree=degrees)
def test_tree_invariants_hold_under_arbitrary_churn(ops, degree):
    tree = KeyTree(degree=degree, keygen=KeyGenerator(0))
    alive = []
    counter = 0
    for join in ops:
        if join or not alive:
            member = f"m{counter}"
            counter += 1
            tree.add_member(member)
            alive.append(member)
        else:
            tree.remove_member(alive.pop(0))
    tree.validate()
    assert tree.size == len(alive)
    assert sorted(tree.members()) == sorted(alive)


@settings(max_examples=40, deadline=None)
@given(count=st.integers(min_value=1, max_value=200), degree=degrees)
def test_insertion_only_trees_are_balanced(count, degree):
    tree = KeyTree(degree=degree, keygen=KeyGenerator(1))
    for i in range(count):
        tree.add_member(f"m{i}")
    tree.validate()
    assert tree.is_balanced(slack=1)


@settings(max_examples=30, deadline=None)
@given(
    count=st.integers(min_value=2, max_value=60),
    victims=st.data(),
    degree=degrees,
)
def test_batch_rekey_refreshes_exactly_affected_paths(count, victims, degree):
    tree = KeyTree(degree=degree, keygen=KeyGenerator(2))
    rekeyer = LkhRekeyer(tree)
    members = [f"m{i}" for i in range(count)]
    rekeyer.rekey_batch(joins=[(m, None) for m in members])
    before = {n.node_id: n.key.version for n in tree.iter_nodes()}

    k = victims.draw(st.integers(min_value=1, max_value=count))
    departures = members[:k]
    message = rekeyer.rekey_batch(departures=departures)

    updated_ids = {key_id for key_id, __ in message.updated}
    for node in tree.iter_nodes():
        if node.is_leaf:
            continue
        if node.node_id in before:
            changed = node.key.version != before[node.node_id]
            assert changed == (node.node_id in updated_ids)
    # Wrap count equals the children of every updated surviving node.
    expected_wraps = sum(
        len(node.children)
        for node in tree.iter_nodes()
        if node.node_id in updated_ids
    )
    assert message.cost == expected_wraps


@settings(max_examples=30, deadline=None)
@given(
    count=st.integers(min_value=4, max_value=80),
    leavers=st.integers(min_value=1, max_value=10),
)
def test_survivor_key_coverage_after_batch(count, leavers):
    """After any batch, every survivor's path keys are reachable from its
    individual key through the message (decryptability invariant)."""
    from repro.members.member import Member

    leavers = min(leavers, count - 1)
    tree = KeyTree(degree=4, keygen=KeyGenerator(3))
    rekeyer = LkhRekeyer(tree)
    members = [f"m{i}" for i in range(count)]
    rekeyer.rekey_batch(joins=[(m, None) for m in members])
    survivors = {}
    for m in members[leavers:]:
        member = Member(m, tree.leaf_of(m).key)
        for node in tree.path_of(m):
            member.install(node.key)
        survivors[m] = member
    message = rekeyer.rekey_batch(departures=members[:leavers])
    for m, member in survivors.items():
        member.process_rekey(message)
        for node in tree.path_of(m):
            assert member.holds(node.key.key_id, node.key.version), (m, node.node_id)
