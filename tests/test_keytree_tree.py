"""Unit tests for the balanced d-ary key tree."""

import math
import random
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.material import KeyGenerator
from repro.keytree import flat
from repro.keytree.flat import FlatKeyTree
from repro.testing.tree import KeyTree

from tests.helpers import KERNELS


class TestConstruction:
    def test_rejects_degree_below_two(self):
        with pytest.raises(ValueError):
            KeyTree(degree=1)

    def test_starts_empty_with_permanent_root(self, tree):
        assert tree.size == 0
        assert tree.root is not None
        assert not tree.root.is_leaf
        assert tree.height() == 0


class TestAddMember:
    def test_add_single(self, tree):
        leaf = tree.add_member("a")
        assert tree.size == 1
        assert "a" in tree
        assert leaf.member_id == "a"
        assert leaf.parent is tree.root
        tree.validate()

    def test_duplicate_rejected(self, tree):
        tree.add_member("a")
        with pytest.raises(ValueError):
            tree.add_member("a")

    def test_leaf_key_id_is_global(self, tree):
        leaf = tree.add_member("alice")
        assert leaf.key.key_id == "member:alice"

    def test_supplied_key_is_kept(self, tree, keygen):
        key = keygen.generate("member:bob")
        leaf = tree.add_member("bob", key)
        assert leaf.key is key

    @pytest.mark.parametrize("count", [1, 4, 5, 16, 17, 64, 100])
    def test_insertion_keeps_balance(self, keygen, count):
        tree = KeyTree(degree=4, keygen=keygen)
        for i in range(count):
            tree.add_member(f"m{i}")
        tree.validate()
        assert tree.is_balanced()

    @pytest.mark.parametrize("degree", [2, 3, 4, 8])
    def test_balance_across_degrees(self, keygen, degree):
        tree = KeyTree(degree=degree, keygen=keygen)
        for i in range(50):
            tree.add_member(f"m{i}")
        tree.validate()
        assert tree.is_balanced()

    def test_full_tree_is_perfect(self, keygen):
        tree = KeyTree(degree=4, keygen=keygen)
        for i in range(64):
            tree.add_member(f"m{i}")
        assert tree.height() == 3
        assert all(leaf.depth == 3 for leaf in tree.root.iter_leaves())


class TestRemoveMember:
    def test_remove_unknown_raises(self, tree):
        with pytest.raises(KeyError):
            tree.remove_member("ghost")

    def test_remove_only_member(self, tree):
        tree.add_member("a")
        survivors = tree.remove_member("a")
        assert tree.size == 0
        assert survivors == [tree.root]
        tree.validate()

    def test_remove_returns_surviving_ancestors_deepest_first(self, tree):
        for i in range(16):
            tree.add_member(f"m{i}")
        leaf = tree.leaf_of("m5")
        expected = leaf.path_to_root()[1:]
        survivors = tree.remove_member("m5")
        assert survivors == expected
        assert survivors[-1] is tree.root

    def test_unary_nodes_are_spliced(self, keygen):
        tree = KeyTree(degree=2, keygen=keygen)
        for m in ("a", "b", "c"):
            tree.add_member(m)
        tree.remove_member("b")
        tree.validate()
        for node in tree.internal_nodes():
            if node is not tree.root:
                assert len(node.children) >= 2

    def test_remove_all_members(self, tree):
        members = [f"m{i}" for i in range(20)]
        for m in members:
            tree.add_member(m)
        for m in members:
            tree.remove_member(m)
            tree.validate()
        assert tree.size == 0

    def test_slots_are_reused_after_removal(self, tree):
        for i in range(16):
            tree.add_member(f"m{i}")
        height_before = tree.height()
        tree.remove_member("m3")
        tree.add_member("fresh")
        assert tree.height() == height_before
        tree.validate()


class TestQueries:
    def test_path_of_runs_leaf_to_root(self, tree):
        for i in range(10):
            tree.add_member(f"m{i}")
        path = tree.path_of("m7")
        assert path[0].member_id == "m7"
        assert path[-1] is tree.root
        for child, parent in zip(path, path[1:]):
            assert child.parent is parent

    def test_leaf_of_unknown_raises(self, tree):
        with pytest.raises(KeyError):
            tree.leaf_of("nope")

    def test_members_listing(self, tree):
        for i in range(5):
            tree.add_member(f"m{i}")
        assert sorted(tree.members()) == [f"m{i}" for i in range(5)]

    def test_node_lookup(self, tree):
        leaf = tree.add_member("a")
        assert tree.node(leaf.node_id) is leaf
        with pytest.raises(KeyError):
            tree.node("missing")

    def test_internal_nodes_excludes_leaves(self, tree):
        for i in range(10):
            tree.add_member(f"m{i}")
        internals = tree.internal_nodes()
        assert tree.root in internals
        assert all(not n.is_leaf for n in internals)

    def test_height_grows_logarithmically(self, keygen):
        tree = KeyTree(degree=4, keygen=keygen)
        for i in range(256):
            tree.add_member(f"m{i}")
        assert tree.height() == math.ceil(math.log(256, 4))


class TestChurn:
    def test_interleaved_churn_preserves_invariants(self, keygen):
        import random

        rng = random.Random(5)
        tree = KeyTree(degree=3, keygen=keygen)
        alive = []
        counter = 0
        for step in range(400):
            if alive and rng.random() < 0.45:
                victim = alive.pop(rng.randrange(len(alive)))
                tree.remove_member(victim)
            else:
                member = f"m{counter}"
                counter += 1
                tree.add_member(member)
                alive.append(member)
            if step % 50 == 0:
                tree.validate()
        tree.validate()
        assert tree.size == len(alive)


# ----------------------------------------------------------------------
# attachment heaps: shedding dead entries is unobservable, and bounded
# ----------------------------------------------------------------------


class HoardingKeyTree(KeyTree):
    """Oracle: the tree as it was before it shed anything."""

    def _shed_dead_candidates(self):
        pass


class HoardingFlatKeyTree(FlatKeyTree):
    def _shed_dead_candidates(self):
        pass


HOARDERS = {"object": HoardingKeyTree, "flat": HoardingFlatKeyTree}


@contextmanager
def shed_floor(floor):
    """Lower the size under which the heaps are left alone, so programs of
    a few members shed again and again."""
    with mock.patch("repro.testing.tree.HEAP_SHED_FLOOR", floor), mock.patch(
        "repro.keytree.flat.HEAP_SHED_FLOOR", floor
    ):
        yield


def structure(tree):
    """Node id -> (parent id, child ids in order), either kernel."""
    return {
        node.node_id: (
            node.parent.node_id if node.parent is not None else None,
            [child.node_id for child in node.children],
        )
        for node in tree.iter_nodes()
    }


def dump(tree):
    """The kernel-neutral dump, heap entries in pop order.

    A dump lists the heap *arrays*; the hoarder's, with its dead entries
    filtered out, is laid out differently from one that was re-heapified
    along the way.  ``seq`` is unique, so the sorted entries are exactly
    what the heap will pop, in order — the part that is state.
    """
    data = tree.to_dict()
    data["open_internal"].sort()
    data["split_candidates"].sort()
    return data


# One step of a churn program: (kind, a, b).
#   join      a fresh members, one add_member each
#   leave     up to a present members (sampled with salt b), one by one
#   batch     one rekey_batch of a joins and the b oldest as departures
#   rejoin    up to a departed ids (salt b) come back, one add_member each
#   mass      a members join, then all of them leave again — the life of
#             the S-partition
steps = st.lists(
    st.one_of(
        st.tuples(st.just("join"), st.integers(1, 8), st.just(0)),
        st.tuples(st.just("leave"), st.integers(1, 6), st.integers(0, 10**6)),
        st.tuples(st.just("batch"), st.integers(0, 8), st.integers(0, 6)),
        st.tuples(st.just("rejoin"), st.integers(1, 4), st.integers(0, 10**6)),
        st.tuples(st.just("mass"), st.integers(4, 40), st.just(0)),
    ),
    min_size=1,
    max_size=25,
)


class ChurnTwins:
    """The tree and its hoarding oracle, fed the same operations."""

    def __init__(self, kernel, degree, oracle=None):
        tree_cls, rekeyer_cls = KERNELS[kernel]
        self.tree = tree_cls(degree=degree, keygen=KeyGenerator(3), name="t")
        self.oracle = (oracle or HOARDERS[kernel])(
            degree=degree, keygen=KeyGenerator(3), name="t"
        )
        self.rekeyers = [rekeyer_cls(self.tree), rekeyer_cls(self.oracle)]
        self.present = []
        self.departed = []
        self.counter = 0

    def fresh(self, count):
        ids = [f"m{self.counter + i}" for i in range(count)]
        self.counter += count
        return ids

    def add(self, ids):
        for member in ids:
            self.tree.add_member(member)
            self.oracle.add_member(member)
            self.present.append(member)
            self.check()

    def remove(self, ids):
        for member in ids:
            self.present.remove(member)
            self.departed.append(member)
            self.tree.remove_member(member)
            self.oracle.remove_member(member)
            self.check()

    def pick(self, pool, count, salt):
        rng = random.Random(salt)
        return rng.sample(pool, min(count, len(pool)))

    def run(self, kind, a, b):
        if kind == "join":
            self.add(self.fresh(a))
        elif kind == "leave":
            self.remove(self.pick(self.present, a, b))
        elif kind == "rejoin":
            back = self.pick(self.departed, a, b)
            for member in back:
                self.departed.remove(member)
            self.add(back)
        elif kind == "mass":
            cohort = self.fresh(a)
            self.add(cohort)
            self.remove(cohort)
        elif a or self.present[:b]:
            joins = self.fresh(a)
            departures = self.present[:b]
            for rekeyer in self.rekeyers:
                rekeyer.rekey_batch(
                    joins=[(member, None) for member in joins],
                    departures=departures,
                )
            self.present = self.present[b:] + joins
            self.departed.extend(departures)
            self.check()

    def check(self):
        assert self.tree._seq_value == self.oracle._seq_value
        assert structure(self.tree) == structure(self.oracle)


@pytest.mark.parametrize("kernel", KERNELS)
@settings(max_examples=40, deadline=None)
@given(program=steps, degree=st.integers(2, 4))
def test_shedding_dead_heap_entries_is_unobservable(kernel, program, degree):
    """Same counter, node ids, parent links and child order after every
    operation, and the same dump at the end, as a tree that never drops a
    heap entry."""
    with shed_floor(4):
        twins = ChurnTwins(kernel, degree)
        for kind, a, b in program:
            twins.run(kind, a, b)
    twins.tree.validate()
    assert dump(twins.tree) == dump(twins.oracle)


def heap_entries(tree):
    return len(tree._split_candidates) + len(tree._open_internal)


@pytest.mark.parametrize("kernel", KERNELS)
def test_heaps_stay_proportional_to_live_nodes_under_steady_churn(kernel):
    """200 epochs of J = L churn at N = 500: removals keep opening slots,
    so a departed leaf's split-candidate entry never surfaces to be
    popped — the heaps must not keep one entry per member ever hosted."""
    rng = random.Random(11)
    tree_cls, rekeyer_cls = KERNELS[kernel]
    tree = tree_cls(degree=4, keygen=KeyGenerator(5), name="t")
    hoarder = HOARDERS[kernel](degree=4, keygen=KeyGenerator(5), name="t")
    rekeyers = [rekeyer_cls(tree), rekeyer_cls(hoarder)]
    present = [f"m{i}" for i in range(500)]
    for rekeyer in rekeyers:
        rekeyer.rekey_batch(joins=[(member, None) for member in present])
    counter = 500
    worst = 0.0
    for __ in range(200):
        rng.shuffle(present)
        departures, present = present[:40], present[40:]
        joins = [f"m{counter + i}" for i in range(40)]
        counter += 40
        present.extend(joins)
        for rekeyer in rekeyers:
            rekeyer.rekey_batch(
                joins=[(member, None) for member in joins], departures=departures
            )
        live_nodes = sum(1 for __ in tree.iter_nodes())
        worst = max(worst, heap_entries(tree) / live_nodes)
    assert worst <= 1.5
    # The oracle shows what the bound is worth — one entry for every
    # member the tree ever hosted — while every observable stayed put.
    assert heap_entries(hoarder) > 8 * live_nodes
    assert tree._seq_value == hoarder._seq_value
    assert structure(tree) == structure(hoarder)
    assert dump(tree) == dump(hoarder)


# ----------------------------------------------------------------------
# slot arrays: compacting them is unobservable
# ----------------------------------------------------------------------


class SlotHoardingFlatKeyTree(FlatKeyTree):
    """Oracle: the flat tree with every slot it ever allocated."""

    def _trim_slots(self):
        pass


class RekeyerTwins(ChurnTwins):
    """Every operation through the rekeyers — slots are renumbered between
    rekeyer operations, nowhere else — with the messages compared too."""

    def __init__(self, degree):
        super().__init__("flat", degree, oracle=SlotHoardingFlatKeyTree)

    def add(self, ids):
        for member in ids:
            ours, theirs = (rekeyer.join(member)[1] for rekeyer in self.rekeyers)
            assert ours.encrypted_keys == theirs.encrypted_keys
            self.present.append(member)
            self.check()

    def remove(self, ids):
        for member in ids:
            self.present.remove(member)
            self.departed.append(member)
            ours, theirs = (rekeyer.leave(member) for rekeyer in self.rekeyers)
            assert ours.encrypted_keys == theirs.encrypted_keys
            self.check()

    def check(self):
        super().check()
        # Verbatim: compaction keeps the heap arrays in order.
        assert self.tree.to_dict() == self.oracle.to_dict()


@contextmanager
def compact_floor(floor):
    with mock.patch.object(flat, "SLOT_COMPACT_FLOOR", floor):
        yield


@settings(max_examples=40, deadline=None)
@given(program=steps, degree=st.integers(2, 4))
def test_compacting_slots_is_unobservable(program, degree):
    """Same counter, node ids, parent links, child order, messages and
    verbatim dump after every operation as a tree that never gives a slot
    back — while the heaps shed too, as they do in service."""
    with shed_floor(4), compact_floor(2):
        twins = RekeyerTwins(degree)
        for kind, a, b in program:
            twins.run(kind, a, b)
    twins.tree.validate()
    assert len(twins.tree._ids) <= len(twins.oracle._ids)


def test_mass_departure_program_does_compact():
    """The program above is not vacuous: the S-partition's life — a
    cohort joins, then all of it leaves — renumbers the slots."""
    with compact_floor(2):
        twins = RekeyerTwins(degree=4)
        twins.run("join", 3, 0)
        twins.run("mass", 40, 0)
    assert len(twins.oracle._ids) > 40
    assert len(twins.tree._ids) < 16
