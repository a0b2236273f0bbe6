"""Property-based tests (hypothesis) for the indexed delivery path.

The :class:`~repro.crypto.wrap.WrapIndex` replaced linear payload scans
in interest derivation and member absorption; these properties pin the
indexed results to the naive reference implementations — including order
— over randomized batches, so the optimization can never drift
semantically.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto.material import KeyGenerator
from repro.crypto.wrap import (
    EncryptedKey,
    RekeyMessage,
    WrapBatch,
    WrapIndex,
)
from repro.members.member import Member
from repro.obs import metrics as obs_metrics
from repro.server.onetree import OneTreeServer
from repro.testing import SCHEME_FACTORIES
from repro.testing.lkh import LkhRekeyer
from repro.testing.strategies import churn_programs, execute_program
from repro.testing.tree import KeyTree
from repro.transport.codec import decode_rekey_message, encode_rekey_message

KEY_IDS = [f"k{i}" for i in range(12)]

encrypted_keys = st.builds(
    EncryptedKey,
    wrapping_id=st.sampled_from(KEY_IDS),
    wrapping_version=st.integers(min_value=0, max_value=3),
    payload_id=st.sampled_from(KEY_IDS),
    payload_version=st.integers(min_value=0, max_value=3),
    ciphertext=st.just(b"opaque"),
)
batches = st.lists(encrypted_keys, max_size=60)
holdings = st.dictionaries(
    st.sampled_from(KEY_IDS), st.integers(min_value=0, max_value=3), max_size=8
)


def naive_direct_matches(keys, held):
    """Positions of the wraps openable with a held key: one linear pass."""
    return [
        position
        for position, ek in enumerate(keys)
        if held.get(ek.wrapping_id) == ek.wrapping_version
    ]


def naive_closure_positions(keys, held):
    """The pre-index fixed-point scan (repeated linear passes)."""
    versions = dict(held)
    wanted = set()
    progress = True
    while progress:
        progress = False
        for position, ek in enumerate(keys):
            if position in wanted:
                continue
            if versions.get(ek.wrapping_id) == ek.wrapping_version and (
                versions.get(ek.payload_id, -1) < ek.payload_version
            ):
                wanted.add(position)
                versions[ek.payload_id] = ek.payload_version
                progress = True
    return wanted


@settings(max_examples=200, deadline=None)
@given(keys=batches, held=holdings)
def test_closure_is_sound_and_covers_direct_matches(keys, held):
    """On arbitrary synthetic batches the closure must (a) select only
    wraps justified by a held or learned key, (b) include every direct
    match that teaches something new, and (c) leave the holdings alone.
    (Exact equivalence with the naive fixed-point scan is asserted on
    genuine rekey payloads below — synthetic batches can express
    version-upgrade races where the naive scan is order-dependent.)"""
    index = WrapIndex(keys)
    before = dict(held)
    rows = index.closure(held)
    selected = [(row, keys[row]) for row in rows]
    assert rows == sorted(set(rows))
    assert held == before, "closure must not mutate the caller's holdings"
    # (a) every selected wrap is openable with a held key or the payload
    # of another selected wrap, teaches a strictly newer version than the
    # holdings started with, and no (payload, version) is delivered twice.
    justifying = set(held) | {ek.payload_id for _, ek in selected}
    delivered = set()
    for _, ek in selected:
        assert ek.wrapping_id in justifying
        assert ek.payload_version > before.get(ek.payload_id, -1)
        assert ek.payload_handle not in delivered
        delivered.add(ek.payload_handle)
    # (b) direct matches that deliver something new are always included.
    for pos in naive_direct_matches(keys, held):
        ek = keys[pos]
        if ek.payload_version > before.get(ek.payload_id, -1):
            assert any(
                p == pos or other.payload_id == ek.payload_id
                for p, other in selected
            )


@settings(max_examples=25, deadline=None)
@given(
    count=st.integers(min_value=2, max_value=50),
    degree=st.integers(min_value=2, max_value=5),
    data=st.data(),
)
def test_closure_matches_naive_fixed_point_on_real_messages(
    count, degree, data
):
    """Indexed closure == the naive repeated-linear-pass fixed point on
    genuine batched-rekey payloads, position for position."""
    tree = KeyTree(degree=degree, keygen=KeyGenerator(8))
    rekeyer = LkhRekeyer(tree)
    members = [f"m{i}" for i in range(count)]
    rekeyer.rekey_batch(joins=[(m, None) for m in members])
    held = {
        m: {n.key.key_id: n.key.version for n in tree.path_of(m)}
        for m in members
    }
    k = data.draw(st.integers(min_value=1, max_value=count - 1))
    victims = data.draw(
        st.lists(
            st.sampled_from(members), min_size=k, max_size=k, unique=True
        )
    )
    joiners = [(f"j{i}", None) for i in range(k)]
    message = rekeyer.rekey_batch(joins=joiners, departures=victims)
    index = message.index()
    for m in members:
        if m in victims:
            continue
        positions = set(index.closure(held[m]))
        assert positions == naive_closure_positions(
            message.encrypted_keys, held[m]
        )


def test_10k_member_delivery_stays_within_depth_budget():
    """Tier-1 guard of the indexed delivery path, on deterministic op
    counters, never wall-clock: at N=10k, resolving one member's interest
    examines O(depth * degree) candidate wraps, not O(|message|).  A
    regression back to linear payload scans blows the budget by two
    orders of magnitude."""
    members = 10_000
    churn = 64
    degree = 4
    server = OneTreeServer(degree=degree, group="budget")
    member_ids = [f"m{i}" for i in range(members)]
    for member_id in member_ids:
        server.join(member_id)
    server.rekey()

    held = {
        member_id: {
            node.key.key_id: node.key.version
            for node in server.tree.path_of(member_id)
        }
        for member_id in member_ids[: 2 * churn]
    }
    for member_id in member_ids[:churn]:
        server.leave(member_id)
    for i in range(churn):
        server.join(f"j{i}")
    result = server.rekey()

    depth = max(len(h) for h in held.values())
    # The budget's premise: a batch is much bigger than one path, so a
    # naive scan (|message| wraps per receiver) would be far over it.
    assert result.cost > 4 * depth
    survivors = member_ids[churn : 2 * churn]
    with obs_metrics.collecting() as registry:
        index = result.index()
        for member_id in survivors:
            index.closure(held[member_id])
    examined = registry.counter_total("wrapindex.examined")
    assert examined > 0
    # Each member examines the buckets of its ~depth held keys plus
    # those of keys it learns along the way; degree bounds any bucket
    # contribution per key.  2x slack absorbs bucket skew (measured
    # work is ~depth wraps per receiver, far under this).
    budget = len(survivors) * 2 * depth * degree
    assert examined <= budget, (
        f"examined {examined} wraps for {len(survivors)} receivers "
        f"(budget {budget}); delivery work is no longer O(depth)"
    )
    # And the measured work is orders of magnitude below what linear
    # scans would cost (|message| wraps per receiver).
    naive_cost = len(survivors) * result.cost
    assert examined * 50 < naive_cost


class TwinPopulations:
    """The harness surface :func:`execute_program` drives, over three
    populations fed the same payloads in three representations: the
    server's :class:`WrapBatch` through its shared index (and so through
    its opened-wrap table), the same broadcast after ``encode`` ->
    ``decode`` through the decoded batch's own shared index, and a plain
    list of the same :class:`EncryptedKey` records absorbed without an
    index, each receiver opening every wrap itself.  Evicted members keep
    listening in all three, last, as the harness's adversaries do.
    """

    PAYLOADS = ("server", "wire", "list")

    def __init__(self, server):
        self.server = server
        self.now = 0.0
        self.populations = {payload: {} for payload in self.PAYLOADS}
        self.evicted = []
        self.table_hits = 0

    @property
    def shared(self):
        return self.populations["server"]

    def advance_time(self, seconds):
        self.now += seconds

    def join(self, member_id, **attributes):
        key = self.server.join(member_id, at_time=self.now, **attributes).individual_key
        for population in self.populations.values():
            population[member_id] = Member(member_id, key)

    def leave(self, member_id):
        self.server.leave(member_id, at_time=self.now)
        self.evicted.append(member_id)

    def payloads(self, result):
        """``payload -> (advanced, records, shared index or None)``."""
        wire = decode_rekey_message(
            encode_rekey_message(
                RekeyMessage(
                    group=self.server.group,
                    epoch=result.epoch,
                    encrypted_keys=result.encrypted_keys,
                    advanced=result.advanced,
                    joined=result.joined,
                    departed=result.departed,
                )
            )
        )
        assert isinstance(wire.encrypted_keys, WrapBatch)
        assert isinstance(result.encrypted_keys, WrapBatch)
        return {
            "server": (result.advanced, result.encrypted_keys, result.index()),
            "wire": (wire.advanced, wire.encrypted_keys, wire.index()),
            "list": (result.advanced, list(result.encrypted_keys), None),
        }

    def rekey(self):
        result = self.server.rekey(now=self.now)
        order = [m for m in self.shared if m not in self.evicted] + self.evicted
        seen = {}
        for payload, (advanced, keys, index) in self.payloads(result).items():
            members = self.populations[payload]
            closures = [
                (index or WrapIndex(keys)).closure(members[m].held_versions())
                for m in order
            ]
            with obs_metrics.collecting() as registry:
                learned = [
                    members[m].apply_advances(advanced)
                    + members[m].absorb(keys, index=index)
                    for m in order
                ]
            if index is None:
                count = registry.counter_total
                assert count("member.unwraps_shared") == 0
                assert count("crypto.unwraps") == count("member.keys_learned")
            else:
                assert registry.counter_total("crypto.unwraps") == len(index.opened)
            # KeyMaterial compares by (id, version, secret): order included.
            seen[payload] = (
                closures,
                learned,
                [members[m]._keys for m in order],
                [
                    registry.counter_total(name)
                    for name in ("member.keys_learned", "member.wraps_examined")
                ],
            )
            if payload == "server":
                self.table_hits += registry.counter_total("member.unwraps_shared")
        assert seen["server"] == seen["wire"] == seen["list"]


@pytest.mark.parametrize("scheme", ["one-keytree", "tt"])
@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(program=churn_programs(min_size=8, max_size=60))
def test_shared_table_matches_private_indexes_under_churn(scheme, program):
    spec = SCHEME_FACTORIES[scheme]
    twins = execute_program(
        TwinPopulations(spec.factory()),
        program,
        attribute_filter=spec.attributes,
        resync_at_end=False,
    )
    if twins.server.size:
        dek = twins.server.group_key()
        for member_id, member in twins.shared.items():
            if member_id not in twins.evicted:
                assert member.holds(dek.key_id, dek.version)


def test_twin_populations_exercise_the_table():
    """The oracle above is not vacuous: a plain churn program is served
    from the table many times over."""
    spec = SCHEME_FACTORIES["one-keytree"]
    program = [("join",)] * 20 + [("rekey",), ("leave",), ("leave",), ("rekey",)]
    twins = execute_program(
        TwinPopulations(spec.factory()), program, resync_at_end=False
    )
    assert twins.table_hits > 20
