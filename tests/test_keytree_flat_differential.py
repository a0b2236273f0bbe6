"""The differential-equivalence battery gating the flat-array kernel.

The flat kernel (:mod:`repro.keytree.flat`) rewrites the hottest
correctness-critical path in the repository, so it is admitted only on
proof of *byte identity*: driven through identical churn traces, object
and flat kernels must emit identical :class:`RekeyMessage` payloads —
same wrap order, same versions, same ciphertext bytes — plus equal
:class:`WrapIndex` closures and equal per-receiver decrypt behavior.

Traces come from two sources: hypothesis-generated operation programs
(shrinkable counterexamples) and pinned-seed random mixes (stable
regression anchors).

The same holds one level up.  Every server builds the flat kernel and
nothing else, so the battery also drives each shipped server beside a
twin whose trees :func:`repro.testing.oracle.with_object_trees` has swapped
for object trees, and demands the same payload bytes, cost breakdown and
verbatim tree dumps after every batch.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.material import KeyGenerator
from repro.crypto.wrap import WrapIndex
from repro.keytree import flat
from repro.keytree.flat import FlatKeyTree, FlatRekeyer
from repro.members.member import Member
from repro.testing import SCHEME_FACTORIES, default_join_attributes
from repro.testing.conformance import S_PERIOD
from repro.testing.invariants import _tree_structures
from repro.testing.lkh import LkhRekeyer
from repro.testing.oracle import with_object_trees
from repro.testing.serialize import tree_to_dict
from repro.testing.tree import KeyTree

# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


def wire(message):
    """A rekey message reduced to its observable bytes, ciphertexts included."""
    return (
        message.group,
        message.epoch,
        tuple(message.updated),
        tuple(message.advanced),
        tuple(message.joined),
        tuple(message.departed),
        tuple(
            (
                ek.wrapping_id,
                ek.wrapping_version,
                ek.payload_id,
                ek.payload_version,
                ek.ciphertext,
            )
            for ek in message.encrypted_keys
        ),
    )


def assert_identical(obj_msg, flat_msg, context=""):
    a, b = wire(obj_msg), wire(flat_msg)
    assert a == b, f"kernel divergence {context}: {a[:2]} vs {b[:2]}"


class KernelPair:
    """Object and flat rekeyers fed the same operations in lock step."""

    def __init__(self, degree, seed, join_refresh="random"):
        self.join_refresh = join_refresh
        self.obj_tree = KeyTree(
            degree=degree, keygen=KeyGenerator(seed), name="g/tree"
        )
        self.obj = LkhRekeyer(self.obj_tree)
        self.flat_tree = FlatKeyTree(
            degree=degree, keygen=KeyGenerator(seed), name="g/tree"
        )
        self.flat = FlatRekeyer(self.flat_tree)

    def batch(self, joins=(), departures=(), force_root=False, context=""):
        obj_msg = self.obj.rekey_batch(
            joins=joins,
            departures=departures,
            force_root=force_root,
            join_refresh=self.join_refresh,
        )
        flat_msg = self.flat.rekey_batch(
            joins=joins,
            departures=departures,
            force_root=force_root,
            join_refresh=self.join_refresh,
        )
        assert_identical(obj_msg, flat_msg, context)
        return obj_msg, flat_msg

    def check_state(self, context=""):
        assert self.obj_tree._seq_value == self.flat_tree._seq_value, context
        assert (
            self.obj_tree.keygen._counter == self.flat_tree.keygen._counter
        ), context
        self.flat_tree.validate()
        assert tree_to_dict(self.obj_tree) == self.flat_tree.to_dict(), context


# A churn program: each element is one batch as (joins, departures,
# force_root) where joins counts fresh members and departures indexes
# into the surviving population.
programs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=3),
        st.booleans(),
    ),
    min_size=1,
    max_size=20,
)


def run_program(pair, program):
    present = []
    counter = 0
    for step, (njoin, ndep, force_root) in enumerate(program):
        # Departures come from the pre-batch population; a member cannot
        # join and depart in the same batch.
        departures = []
        if pair.join_refresh != "owf":
            for _ in range(min(ndep, len(present))):
                departures.append(present.pop(0))
        joins = []
        for _ in range(njoin):
            counter += 1
            joins.append((f"m{counter}", None))
            present.append(f"m{counter}")
        if not joins and not departures and not force_root:
            continue
        pair.batch(joins, departures, force_root, context=f"step {step}")
    pair.check_state("final state")
    return present


# ----------------------------------------------------------------------
# hypothesis-driven traces
# ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    program=programs,
    degree=st.integers(min_value=2, max_value=5),
)
def test_hypothesis_churn_traces_are_byte_identical(program, degree):
    pair = KernelPair(degree=degree, seed=11)
    run_program(pair, program)


@settings(max_examples=20, deadline=None)
@given(program=programs)
def test_owf_refresh_traces_are_byte_identical(program):
    pair = KernelPair(degree=3, seed=5, join_refresh="owf")
    run_program(pair, program)


def closure_records(index, versions):
    """``(row, wrapping id, payload id, payload version)`` of each row
    ``index.closure(versions)`` reaches."""
    batch = index.batch
    return [
        (row, batch.wrapping_ids[row], batch.payload_ids[row],
         batch.payload_versions[row])
        for row in index.closure(versions)
    ]


@settings(max_examples=20, deadline=None)
@given(program=programs)
def test_wrap_index_closures_are_equal(program):
    """Every surviving member resolves the same closure from either payload."""
    pair = KernelPair(degree=3, seed=23)
    present = []
    counter = 0
    for njoin, ndep, force_root in program:
        departures = [
            present.pop(0) for _ in range(min(ndep, len(present)))
        ]
        joins = []
        for _ in range(njoin):
            counter += 1
            joins.append((f"m{counter}", None))
            present.append(f"m{counter}")
        if not joins and not departures and not force_root:
            continue
        held = {
            member: {
                v.key.key_id: v.key.version
                for v in pair.obj_tree.path_of(member)
            }
            for member in present[: len(present) // 2 + 1]
            if member in pair.obj_tree._member_leaf
        }
        obj_msg, flat_msg = pair.batch(joins, departures, force_root)
        obj_index = WrapIndex(obj_msg.encrypted_keys)
        flat_index = WrapIndex(flat_msg.encrypted_keys)
        for member, versions in held.items():
            assert closure_records(obj_index, versions) == closure_records(
                flat_index, versions
            ), member


# ----------------------------------------------------------------------
# pinned-seed mixes (stable regression anchor, no shrinking needed)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_pinned_seed_mixed_traces(seed):
    rng = random.Random(seed)
    pair = KernelPair(degree=rng.choice((2, 3, 4)), seed=seed)
    present = []
    counter = 0
    for step in range(40):
        op = rng.random()
        context = f"seed={seed} step={step}"
        if op < 0.3 or not present:
            counter += 1
            member = f"m{counter}"
            obj_msg = pair.obj.join(member)[1]
            flat_msg = pair.flat.join(member)[1]
            assert_identical(obj_msg, flat_msg, context)
            present.append(member)
        elif op < 0.45:
            victim = present.pop(rng.randrange(len(present)))
            assert_identical(
                pair.obj.leave(victim), pair.flat.leave(victim), context
            )
        elif op < 0.9:
            njoin = rng.randrange(0, 5)
            ndep = rng.randrange(0, min(3, len(present)) + 1)
            departures = [
                present.pop(rng.randrange(len(present)))
                for _ in range(min(ndep, len(present)))
            ]
            joins = []
            for _ in range(njoin):
                counter += 1
                joins.append((f"m{counter}", None))
                present.append(f"m{counter}")
            pair.batch(
                joins,
                departures,
                force_root=rng.random() < 0.2,
                context=context,
            )
        else:
            assert_identical(
                pair.obj.refresh_root(),
                pair.flat.refresh_root(),
                context,
            )
        pair.check_state(context)


def test_heaps_shed_in_lock_step_under_steady_churn():
    """Both kernels shed dead heap entries at the same operations — single
    adds and removes and the fused bulk-join loop alike — so even the heap
    *arrays*, which the dumps list verbatim, stay equal."""
    rng = random.Random(31)
    sheds = {KeyTree: 0, FlatKeyTree: 0}

    def counting(cls):
        shed = cls._shed_dead_candidates

        def wrapper(tree):
            sheds[cls] += 1
            shed(tree)

        return mock.patch.object(cls, "_shed_dead_candidates", wrapper)

    with counting(KeyTree), counting(FlatKeyTree):
        pair = KernelPair(degree=4, seed=31)
        present = [f"m{i}" for i in range(300)]
        pair.batch([(member, None) for member in present])
        counter = 300
        for epoch in range(60):
            rng.shuffle(present)
            departures, present = present[:30], present[30:]
            joins = [f"m{counter + i}" for i in range(30)]
            counter += 30
            present.extend(joins)
            if epoch % 3:
                pair.batch([(member, None) for member in joins], departures)
            else:  # the single-operation paths
                for victim in departures:
                    assert_identical(pair.obj.leave(victim), pair.flat.leave(victim))
                for member in joins:
                    assert_identical(
                        pair.obj.join(member)[1], pair.flat.join(member)[1]
                    )
            assert sheds[KeyTree] == sheds[FlatKeyTree]
            pair.check_state(f"epoch {epoch}")
        assert sheds[KeyTree] > 3


def test_slots_compact_in_lock_step_with_the_object_tree():
    """The object tree has no slots to renumber, which makes it the
    oracle for compaction: cohorts that join and then all leave — batched
    and one by one — with the floor low enough to fire every time, and
    payloads, counters and verbatim dumps stay equal throughout."""
    compactions = []
    compact = FlatKeyTree._compact

    def counting(tree):
        compactions.append(len(tree._ids))
        compact(tree)

    with mock.patch.object(
        flat, "SLOT_COMPACT_FLOOR", 4
    ), mock.patch.object(FlatKeyTree, "_compact", counting):
        pair = KernelPair(degree=4, seed=37)
        pair.batch([(f"stay{i}", None) for i in range(5)])
        for cohort in range(6):
            members = [f"c{cohort}-{i}" for i in range(60)]
            pair.batch([(member, None) for member in members])
            if cohort % 2:
                pair.batch(departures=members)
            else:
                for victim in members:
                    assert_identical(
                        pair.obj.leave(victim), pair.flat.leave(victim)
                    )
                    pair.check_state(f"cohort {cohort} {victim}")
            pair.check_state(f"cohort {cohort}")
            assert len(pair.flat_tree._ids) < 40
    assert len(compactions) >= 6


def test_per_receiver_decrypt_counts_match():
    """Receivers fed either kernel's payload learn the same keys, in the
    same quantity, every epoch."""
    pair = KernelPair(degree=3, seed=42)
    rng = random.Random(42)
    obj_members = {}
    flat_members = {}
    present = []
    counter = 0
    for _ in range(8):
        joins = []
        for _ in range(rng.randrange(1, 5)):
            counter += 1
            member_id = f"m{counter}"
            joins.append((member_id, None))
            present.append(member_id)
        departures = []
        if len(present) > 4:
            for _ in range(rng.randrange(0, 2)):
                victim = present.pop(rng.randrange(len(present)))
                departures.append(victim)
                obj_members.pop(victim, None)
                flat_members.pop(victim, None)
        obj_msg, flat_msg = pair.batch(joins, departures)
        for member_id, _ in joins:
            leaf = pair.obj_tree._member_leaf[member_id]
            individual = leaf.key
            obj_members[member_id] = Member(member_id, individual)
            flat_members[member_id] = Member(member_id, individual)
        obj_index = WrapIndex(obj_msg.encrypted_keys)
        flat_index = WrapIndex(flat_msg.encrypted_keys)
        for member_id in present:
            learned_obj = obj_members[member_id].absorb(
                obj_msg.encrypted_keys, index=obj_index
            )
            learned_flat = flat_members[member_id].absorb(
                flat_msg.encrypted_keys, index=flat_index
            )
            assert len(learned_obj) == len(learned_flat), member_id
            assert [
                (k.key_id, k.version, k.secret) for k in learned_obj
            ] == [
                (k.key_id, k.version, k.secret) for k in learned_flat
            ], member_id
    # Everyone ends on the same (identical) group key.
    obj_dek = pair.obj_tree.root.key
    flat_dek = pair.flat_tree.root.key
    assert obj_dek.secret == flat_dek.secret
    for member_id in present:
        assert obj_members[member_id].holds(obj_dek.key_id, obj_dek.version)
        assert flat_members[member_id].holds(
            flat_dek.key_id, flat_dek.version
        )


def wire_result(result):
    return tuple(
        (
            ek.wrapping_id,
            ek.wrapping_version,
            ek.payload_id,
            ek.payload_version,
            ek.ciphertext,
        )
        for ek in result.encrypted_keys
    )


# ----------------------------------------------------------------------
# every server: shipped (flat) vs its object-tree oracle, in lock step
# ----------------------------------------------------------------------

LOCK_STEP_SCHEMES = (
    "qt", "tt", "pt", "loss-homogenized", "loss-random", "loss-3-trees",
)


class ServerPair:
    """A shipped server and its object-tree oracle, fed the same churn."""

    def __init__(self, scheme):
        self.spec = SCHEME_FACTORIES[scheme]
        self.shipped = self.spec.factory()
        self.oracle = with_object_trees(self.spec.factory())
        assert all(
            isinstance(tree, FlatKeyTree)
            for _, tree in _tree_structures(self.shipped)
        )
        assert all(
            isinstance(tree, KeyTree) for _, tree in _tree_structures(self.oracle)
        )
        self.present = []
        self.counter = 0
        self.now = 0.0

    def join(self, count):
        for _ in range(count):
            self.counter += 1
            member = f"m{self.counter}"
            attributes = {
                name: value
                for name, value in default_join_attributes(member).items()
                if name in self.spec.attributes
            }
            for server in (self.shipped, self.oracle):
                server.join(member, at_time=self.now, **attributes)
            self.present.append(member)

    def leave(self, count):
        for _ in range(min(count, len(self.present))):
            member = self.present.pop(0)
            for server in (self.shipped, self.oracle):
                server.leave(member)

    def rekey(self, context=""):
        ours = self.shipped.rekey(now=self.now)
        theirs = self.oracle.rekey(now=self.now)
        assert wire_result(ours) == wire_result(theirs), context
        assert ours.breakdown == theirs.breakdown, context
        assert list(ours.breakdown) == list(theirs.breakdown), context
        assert ours.migrated == theirs.migrated, context
        assert ours.advanced == theirs.advanced, context
        assert self.shipped.keygen._counter == self.oracle.keygen._counter, context
        # Verbatim: heap arrays included, entry for entry.
        assert [
            (label, tree.to_dict()) for label, tree in _tree_structures(self.shipped)
        ] == [
            (label, tree.to_dict()) for label, tree in _tree_structures(self.oracle)
        ], context
        return ours


# One step: (joins, departures, seconds to the next rekey point).  Half an
# S-period and a whole one, so members migrate S -> L both in trickles and
# as whole cohorts.
server_programs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=4),
        st.sampled_from((0.0, S_PERIOD / 2, S_PERIOD)),
    ),
    min_size=1,
    max_size=12,
)


@pytest.mark.parametrize("scheme", LOCK_STEP_SCHEMES)
@settings(max_examples=15, deadline=None)
@given(program=server_programs)
def test_servers_match_their_object_tree_oracle(scheme, program):
    with mock.patch.object(
        flat, "SLOT_COMPACT_FLOOR", 2
    ):
        pair = ServerPair(scheme)
        for step, (joins, departures, advance) in enumerate(program):
            pair.leave(departures)
            pair.join(joins)
            pair.now += advance
            pair.rekey(f"{scheme} step {step}")
        for _, tree in _tree_structures(pair.shipped):
            tree.validate()


@pytest.mark.parametrize("scheme", ("qt", "tt"))
def test_mass_migration_compacts_the_s_tree_unobservably(scheme):
    """The benchmark's set-up in miniature: a group admitted at once sits
    out its S-period and migrates to the L-tree in one batch, after which
    the S-partition holds a trickle of newcomers.  With the floor patched
    low the emptied S-tree gives its slots back, and nothing the oracle
    can see moves."""
    compacted = []
    compact = FlatKeyTree._compact

    def recording(tree):
        compacted.append(tree.name)
        compact(tree)

    with mock.patch.object(
        flat, "SLOT_COMPACT_FLOOR", 8
    ), mock.patch.object(FlatKeyTree, "_compact", recording):
        pair = ServerPair(scheme)
        pair.join(120)
        pair.rekey("admit")
        pair.now += S_PERIOD
        pair.join(3)
        result = pair.rekey("mass migration")
        assert len(result.migrated) == 120
        for epoch in range(6):
            pair.now += S_PERIOD / 2
            pair.leave(2)
            pair.join(3)
            pair.rekey(f"steady {epoch}")
        s_partition = pair.shipped.partitions[0]
        if scheme == "tt":
            s_tree = s_partition.tree
            assert compacted and all(name.endswith("s-tree") for name in compacted)
            assert len(s_tree._ids) <= 4 * len(s_tree._index) + 8
        else:  # the queue partition has no tree to compact
            assert not hasattr(s_partition, "tree") and not compacted
