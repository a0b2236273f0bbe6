"""What the steady-state rekey loop holds and allocates stays small.

The collector's cost is the tracked heap it walks and the objects each
epoch promotes into it (``docs/performance.md``, "Memory and the
collector").  These tests pin the mechanisms that keep both down:
attachment heaps that shed dead entries and slot arrays that are given
back after a mass departure, receiver RNG streams built at the first
draw, events that carry their arguments, a payload that is columns
from the rekeyer to the index — no tracked object per wrap at all — and
per-member records without a ``__dict__`` that share their id strings.
"""

import gc
import pickle
import random
import sys
import tracemalloc
import types
from contextlib import contextmanager

import pytest

import repro.network.channel as channel_module
from repro.crypto.cipher import _subkeys
from repro.crypto.material import KeyGenerator, KeyMaterial
from repro.crypto.wrap import (
    EncryptedKey,
    RekeyMessage,
    WrapBatch,
    WrapIndex,
    wrap_key,
)
from repro.faults.schedule import ChurnStorm, FaultSchedule
from repro.keytree.flat import SLOT_COMPACT_FLOOR, FlatKeyTree, FlatRekeyer
from repro.members.durations import TwoClassDuration
from repro.network.channel import MulticastChannel
from repro.network.loss import BernoulliLoss
from repro.server.onetree import OneTreeServer
from repro.server.twopartition import TwoPartitionServer
from repro.sim.engine import EventLoop
from repro.sim.simulation import GroupRekeyingSimulation, SimulationConfig
from repro.transport.codec import decode_rekey_message, encode_rekey_message


@contextmanager
def counted_streams():
    """Count the ``random.Random`` objects the channel module constructs."""
    built = []

    def counting(seed):
        built.append(seed)
        return random.Random(seed)

    real = channel_module.random
    channel_module.random = types.SimpleNamespace(Random=counting)
    try:
        yield built
    finally:
        channel_module.random = real


# ----------------------------------------------------------------------
# (a) the census of a cost-only run is bounded
# ----------------------------------------------------------------------

DURATIONS = TwoClassDuration(short_mean=180.0, long_mean=10_800.0, alpha=0.8)


class SteadyCensus:
    """Durations whose first ``size`` draws are a group that has been
    running forever (class Cl with its stationary share, exponential
    residual lifetimes), so the group is its steady-state size from the
    first epoch; later draws are fresh joins."""

    def __init__(self, size):
        self.left = size
        self.long_share = (1.0 - DURATIONS.alpha) * DURATIONS.long_mean / DURATIONS.mean

    def sample_with_class(self, rng):
        if self.left <= 0:
            return DURATIONS.sample_with_class(rng)
        self.left -= 1
        if rng.random() < self.long_share:
            return rng.expovariate(1.0 / DURATIONS.long_mean), "Cl"
        return rng.expovariate(1.0 / DURATIONS.short_mean), "Cs"


def test_cost_only_census_stays_within_budget():
    size, period = 2000, 60.0

    def census():
        gc.collect()
        return len(gc.get_objects())

    baseline = census()  # whatever else this test process holds

    with counted_streams() as built:
        sim = GroupRekeyingSimulation(
            TwoPartitionServer(mode="tt", s_period=300, degree=4),
            SimulationConfig(
                arrival_rate=size / DURATIONS.mean,
                rekey_period=period,
                horizon=10 * period,
                duration_model=SteadyCensus(size),
                seed=5,
                fault_schedule=FaultSchedule.of([ChurnStorm(at_time=0.0, joins=size)]),
                cost_only=True,
                verify=False,
            ),
        )
        sim.run()
        early = census()
        peak = early
        for epoch in range(11, 301):
            sim.loop.run_until(period * epoch)
            if epoch % 10 == 0:
                peak = max(peak, census())
    assert sim.metrics.records[-1].group_size > 0.9 * size
    # A sawtooth (the heaps fill to their shed size, then drop), not a
    # ramp: one entry — and its node, key and child list — per member
    # ever hosted was 1.95x by epoch 300, 2.7x net of the baseline, and
    # climbing.
    assert peak <= 1.3 * early
    assert peak - baseline <= 1.4 * (early - baseline)
    # Nobody is drawn for in a cost-only run, so no stream is ever built.
    assert built == []
    # The S-tree was set up holding the whole group, which then migrated;
    # its slot arrays follow what it holds now, not what it held then.
    s_tree = sim.server.partitions[0].tree
    live = len(s_tree._index)
    assert live < size / 4
    budget = 4 * live + SLOT_COMPACT_FLOOR
    for column in (
        s_tree._parent, s_tree._nchild, s_tree._ids, s_tree._member,
        s_tree._versions, s_tree._secrets, s_tree._leafcnt, s_tree._depthv,
        s_tree._gen,
    ):
        assert len(column) <= budget
    assert len(s_tree._child) <= budget * s_tree.degree
    assert len(s_tree._free) + live == len(s_tree._ids)


# ----------------------------------------------------------------------
# (b) streams: built at the first draw, same states as built at subscribe
# ----------------------------------------------------------------------


class EagerStreamChannel(MulticastChannel):
    """Oracle: every stream built at ``subscribe``, as it used to be."""

    def subscribe(self, receiver_id, loss):
        super().subscribe(receiver_id, loss)
        self.stream_of(receiver_id)


def test_one_stream_per_receiver_drawn_for():
    with counted_streams() as built:
        channel = MulticastChannel(seed=9)
        for i in range(10):
            channel.subscribe(f"r{i}", BernoulliLoss(0.3))
        assert built == []
        for packet in range(5):
            channel.multicast(packet, audience=["r1", "r4", "r7"])
        assert sorted(built) == ["9/r1", "9/r4", "9/r7"]
        channel.multicast("all")
        channel.multicast("again")
        assert sorted(built) == sorted(f"9/r{i}" for i in range(10))


def test_lazy_streams_end_in_the_states_of_eager_ones():
    rng = random.Random(4)
    lazy, eager = MulticastChannel(seed=3), EagerStreamChannel(seed=3)
    ids = [f"r{i}" for i in range(12)]
    subscribed = set()
    for step in range(300):
        rid = rng.choice(ids)
        roll = rng.random()
        if rid not in subscribed:
            for channel in (lazy, eager):
                channel.subscribe(rid, BernoulliLoss(0.4))
            subscribed.add(rid)
        elif roll < 0.2:
            for channel in (lazy, eager):
                channel.unsubscribe(rid)
            subscribed.discard(rid)
        else:
            # Some receivers not subscribed, some never drawn for so far.
            audience = None if roll > 0.9 else rng.sample(ids, 4)
            reports = [
                channel.multicast(step, audience=audience)
                for channel in (lazy, eager)
            ]
            assert reports[0] == reports[1]
    assert subscribed
    for rid in sorted(subscribed):
        assert lazy.stream_of(rid).getstate() == eager.stream_of(rid).getstate()
    assert (lazy.receptions, lazy.losses) == (eager.receptions, eager.losses)


# ----------------------------------------------------------------------
# (c) a payload is columns, and a row seals on its first read
# ----------------------------------------------------------------------


def flat_wrap_arguments(count):
    """What the flat kernel adds a row from: ids, versions and the two
    secrets as bytes — no key objects."""
    keygen = KeyGenerator(2)
    wrapping = keygen.generate("kek")
    return [
        ("kek", wrapping.version, f"k{i}", i % 3, wrapping.secret, keygen.fresh_secret())
        for i in range(count)
    ]


def payload_census(members, departures):
    """``(wraps, tracked objects left)`` by one flat-kernel payload taken
    from rekey through encode and decode to its index.

    The collector is off throughout, so nothing is collected mid-way; one
    explicit collection before each count lets it untrack what it never
    walks again (tuples and dicts of strings and ints, such as the tree's
    heap entries and the messages' ``updated`` handles) and the census
    counts what it would keep walking.  Everything the pipeline made is
    still referenced at the second count; the cipher's subkey cache, which
    is bounded and process-wide rather than the payload's, is emptied
    before each count."""
    tree = FlatKeyTree(degree=4, keygen=KeyGenerator(3), name="budget")
    rekeyer = FlatRekeyer(tree)
    rekeyer.rekey_batch(joins=[(f"m{i}", None) for i in range(members)])
    leavers = random.Random(1).sample([f"m{i}" for i in range(members)], departures)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        _subkeys.cache_clear()
        gc.collect()
        before = len(gc.get_objects())
        message = rekeyer.rekey_batch(departures=leavers)
        wire = encode_rekey_message(message)
        decoded = decode_rekey_message(wire)
        index = decoded.index()
        _subkeys.cache_clear()
        gc.collect()
        grown = len(gc.get_objects()) - before
    finally:
        if was_enabled:
            gc.enable()
    assert index.size == len(message.encrypted_keys) == message.cost
    assert all(message.encrypted_keys.is_sealed(row) for row in range(message.cost))
    return message.cost, grown


def test_payload_path_tracks_no_object_per_wrap():
    """A payload is a fixed handful of containers (columns, the index's
    two maps) whatever its size: rekey -> encode -> decode -> index()
    leaves as many tracked objects behind for ~4.4k wraps as for ~1.1k.
    One object per wrap on either side of the wire, or a bucket per
    wrapping key, would add thousands."""
    small_wraps, small = payload_census(2048, 200)
    large_wraps, large = payload_census(8192, 800)
    assert 1000 <= small_wraps and 4 * small_wraps - 500 <= large_wraps
    assert abs(large - small) <= 8
    assert large < 64


def test_row_views_match_their_wrap_key_twins():
    batch = WrapBatch()
    for six in flat_wrap_arguments(1000):
        batch.add(*six)
    keygen = KeyGenerator(5)
    other = wrap_key(keygen.generate("x"), keygen.generate("y"))
    for row, six in enumerate(flat_wrap_arguments(1000)):
        wrapping = KeyMaterial(six[0], six[1], six[4])
        eager = wrap_key(wrapping, KeyMaterial(six[2], six[3], six[5]))
        # A view seals its row and is an EncryptedKey like its twin.
        assert not batch.is_sealed(row)
        view = batch[row]
        assert batch.is_sealed(row) and type(view) is EncryptedKey
        assert view == eager and eager == view and view != other
        assert hash(view) == hash(eager) and view in {eager}
        assert repr(view) == repr(eager)
        assert batch.ciphertext(row) is view.ciphertext
        assert pickle.loads(pickle.dumps(view)) == eager
    assert batch == list(batch) and batch != batch[1:]

    # Pickled before anything read it: sealed first, in place, and the
    # blob carries ciphertext only.
    fresh = WrapBatch()
    for six in flat_wrap_arguments(1000):
        fresh.add(*six)
    blob = pickle.dumps(fresh)
    thawed = pickle.loads(blob)
    assert all(thawed.is_sealed(row) and fresh.is_sealed(row) for row in range(1000))
    assert not any(six[4] in blob or six[5] in blob for six in flat_wrap_arguments(1000))
    assert thawed == fresh == batch and thawed == list(batch)


def test_a_deferred_row_seals_only_when_its_ciphertext_is_read():
    keygen = KeyGenerator(4)
    kek = keygen.generate("kek")
    batch = WrapBatch()
    for six in flat_wrap_arguments(40):
        batch.add(*six)
    batch.append(wrap_key(kek, keygen.generate("dek")))  # a record comes sealed
    index = WrapIndex(batch)
    holder = {"kek": kek.version}
    assert index.closure(holder)
    head = batch[:2]  # columns sliced: the rows stay unsealed
    assert head.payload_ids == ["k0", "k1"] and not head.is_sealed(0)
    assert [len(batch), batch.payload_ids[-1]] == [41, "dek"]
    assert batch.payload_ids[:2] == ["k0", "k1"] and batch.wrapping_versions[-1] == 0
    assert [row for row in range(41) if batch.is_sealed(row)] == [40]
    first = batch.ciphertext(3)
    assert [row for row in range(41) if batch.is_sealed(row)] == [3, 40]
    assert batch.ciphertext(3) is first
    # An unsealed row unwraps, sealing it on the way.
    six = flat_wrap_arguments(40)[7]
    opened = batch.unwrap(7, KeyMaterial(six[0], six[1], six[4]))
    assert opened == KeyMaterial(six[2], six[3], six[5]) and batch.is_sealed(7)
    blob = encode_rekey_message(RekeyMessage(group="g", epoch=1, encrypted_keys=batch))
    assert all(batch.is_sealed(row) for row in range(41))
    assert not head.is_sealed(0) and head == batch[:2]
    assert decode_rekey_message(blob).encrypted_keys == batch


# ----------------------------------------------------------------------
# (d) events carry their arguments
# ----------------------------------------------------------------------


def test_events_carry_arguments_in_insertion_order():
    loop = EventLoop()
    log = []

    def note(*args):
        log.append(args)

    loop.schedule(2.0, note, "b", 1)
    loop.schedule(1.0, note, "a")
    loop.schedule(2.0, note, "b", 2)
    loop.schedule(2.0, lambda: log.append("closure"))
    loop.schedule_in(2.0, note, "b", 3)
    loop.schedule(3.0, note)
    assert loop.run_until(10.0) == 6
    assert log == [("a",), ("b", 1), ("b", 2), "closure", ("b", 3), ()]


def test_member_events_share_one_bound_method():
    sim = GroupRekeyingSimulation(
        TwoPartitionServer(mode="tt", s_period=300, degree=4),
        SimulationConfig(
            horizon=0.0,
            fault_schedule=FaultSchedule.of([ChurnStorm(at_time=0.0, joins=50)]),
            cost_only=True,
            verify=False,
        ),
    )
    sim.run()
    departures = [
        event for event in sim.loop._heap if event[3] and event[3][0] in sim.members
    ]
    assert len(departures) == 50
    assert len({id(event[2]) for event in departures}) == 1
    # A cost-only run has no transport to draw from the channel, so it
    # subscribes no receiver ...
    assert sim.channel.subscribers() == []
    # ... and one with a transport keeps one loss process per loss rate,
    # not per member.
    from repro.members.population import LossPopulation
    from repro.transport.wka_bkr import WkaBkrProtocol

    lossy = GroupRekeyingSimulation(
        OneTreeServer(degree=4),
        SimulationConfig(
            horizon=0.0,
            fault_schedule=FaultSchedule.of([ChurnStorm(at_time=0.0, joins=50)]),
            loss_population=LossPopulation.two_point(),
            transport=WkaBkrProtocol(keys_per_packet=16),
        ),
    )
    lossy.run()
    assert sorted(lossy.channel.subscribers()) == sorted(lossy.members)
    assert len({id(lossy.channel.loss_of(rid)) for rid in lossy.members}) == 2


# ----------------------------------------------------------------------
# (e) one compact record per member, and the payload is not copied
# ----------------------------------------------------------------------


def admit(server, count, now=0.0, first=0):
    registrations = [server.join(f"m{i}", at_time=now) for i in range(first, first + count)]
    return registrations, server.rekey(now=now)


def test_bytes_per_member_after_the_first_rekey():
    """A one-keytree server at N = 8,192, traced from empty through its
    first rekey.  Measured (bytes per admitted member, payload alive /
    traced peak): 1,003 / 1,168 on CPython 3.11, 1,041 / 1,211 on 3.9 and
    984 / 1,149 on 3.12.  The budget is the highest reading plus ~7%.
    Dict-backed keys and registrations, a second copy of each leaf id and
    a copy of the payload's columns read 1,239-1,287 / 1,411-1,464."""
    size = 8192
    admit(OneTreeServer(degree=4, keygen=KeyGenerator(0)), 64)  # warm caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        server = OneTreeServer(degree=4, keygen=KeyGenerator(1))
        __, result = admit(server, size)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert server.size == size and result.cost > size
    assert (held - before) / size <= 1110
    assert (peak - before) / size <= 1295


def test_leaf_id_is_the_individual_keys_own_string():
    server = OneTreeServer(degree=4, keygen=KeyGenerator(2))
    registrations, __ = admit(server, 300)
    for member_id in [f"m{i}" for i in range(0, 300, 3)]:
        server.leave(member_id, at_time=60.0)
    more, __ = admit(server, 150, now=60.0, first=300)  # freed slots reused
    tree = server.partitions[0].tree
    kept = [r for r in registrations + more if r.member_id in server]
    assert len(kept) == 350
    for registration in kept:
        leaf = tree._member_leaf[registration.member_id]
        assert tree._ids[leaf] is registration.individual_key.key_id


@contextmanager
def captured_messages(server):
    """Record each partition's rekey message, and a column copy of its
    payload as the partition returned it."""
    captured = []
    for partition in server.partitions:

        def apply(*args, _apply=partition.apply, _label=partition.label):
            message = _apply(*args)
            if message is not None:
                captured.append((_label, message, message.encrypted_keys[:]))
            return message

        partition.apply = apply
    try:
        yield captured
    finally:
        for partition in server.partitions:
            del partition.apply


def test_one_partition_payload_is_the_partitions_batch():
    server = OneTreeServer(degree=4, keygen=KeyGenerator(3))
    with captured_messages(server) as captured:
        __, result = admit(server, 500)
    [(label, message, rows)] = captured
    assert result.encrypted_keys is message.encrypted_keys
    assert result.breakdown == {label: len(rows)} and result.encrypted_keys == rows


def test_two_partition_payload_keeps_the_row_order_and_breakdown():
    server = TwoPartitionServer(mode="tt", s_period=120.0, degree=4, keygen=KeyGenerator(4))
    rng = random.Random(4)
    joined = 0
    both = 0
    for epoch in range(8):
        now = 60.0 * epoch
        if epoch:
            for member_id in rng.sample(sorted(server.members()), 15):
                server.leave(member_id, at_time=now)
        with captured_messages(server) as captured:
            __, result = admit(server, 200 if epoch == 0 else 25, now=now, first=joined)
        joined += 200 if epoch == 0 else 25
        labels = [label for label, __, __ in captured]
        both += labels == ["s-partition", "l-partition"]
        expected = WrapBatch()
        breakdown = {}
        for label, __, rows in captured:
            expected.extend(rows)
            breakdown[label] = len(rows)
        stitch = result.encrypted_keys[len(expected):]
        expected.extend(stitch)
        breakdown["group-key"] = len(stitch)
        assert len(stitch) > 0
        assert result.breakdown == breakdown
        assert result.encrypted_keys == expected
        # The payload is the first partition's batch, grown in place.
        assert result.encrypted_keys is captured[0][1].encrypted_keys
    assert both >= 4
