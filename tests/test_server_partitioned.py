"""The partitioned server itself: policies, join attributes, one stitch.

The three scheme classes are thin factories over
:class:`~repro.server.partitioned.PartitionedServer`; their payloads are
pinned by ``tests/golden/server_payloads.json``.  Here the composite is
driven directly — any number of partitions under any policy — and the
policy's contract with ``join()`` is checked for every scheme.
"""

import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.crypto.material import KeyGenerator
from repro.keytree.queuepartition import QueuePartition
from repro.server.losshomog import LossHomogenizedServer
from repro.server.partitioned import PartitionedServer, TreePartition
from repro.server.placement import (
    POLICIES,
    AgePlacement,
    SinglePartitionPlacement,
    NearestLossPlacement,
    RoundRobinPlacement,
    policy_from_state,
)
from repro.server.snapshot import restore_server, snapshot_server
from repro.server.twopartition import TwoPartitionServer
from repro.testing import SCHEME_FACTORIES, ConformanceHarness
from repro.testing.conformance import default_join_attributes
from repro.testing.invariants import check_structures
from repro.testing.strategies import churn_programs, execute_program

SRC = Path(repro.__file__).parent


def composite(policy_name, k, seed=0, queue_first=False, dek=True):
    """A ``k``-partition server under the named policy, built from parts."""
    keygen = KeyGenerator(seed)
    partitions = [
        TreePartition.build(f"part{i}", f"g/part{i}", 3, keygen) for i in range(k)
    ]
    if queue_first:
        partitions[0] = QueuePartition(keygen=keygen, name="g/queue")
    policy = {
        "hash": SinglePartitionPlacement,
        "round-robin": lambda: RoundRobinPlacement(tuple(range(k))),
        "by-age": lambda: AgePlacement(60.0),
    }[policy_name]()
    return PartitionedServer(
        partitions, policy, keygen if dek else None, keygen=keygen, group="g"
    )


# ----------------------------------------------------------------------
# any k, any policy: structure and secrecy
# ----------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    policy=st.sampled_from(("hash", "round-robin", "by-age")),
    k=st.integers(min_value=1, max_value=6),
    queue_first=st.booleans(),
    program=churn_programs(max_size=40),
)
def test_any_composite_keeps_structure_and_secrecy(policy, k, queue_first, program):
    """Forward and backward secrecy, delivery, resync and structural
    soundness are properties of the composite, not of a scheme: they hold
    for any number of partitions under any policy (the harness audits all
    of them at every rekey point)."""
    if policy == "by-age":
        k = max(k, 2)  # S and L; the rest stay empty, which must be fine
    if policy == "hash":
        k = 1  # the one-keytree policy has one partition to place into
    server = composite(policy, k, queue_first=queue_first)
    harness = ConformanceHarness(server, structural_checks=True)
    execute_program(harness, program)
    check_structures(server)
    assert sum(part.size for part in server.partitions) == server.size
    # Any composite snapshots and restores, not only the three factories.
    twin = restore_server(json.loads(json.dumps(snapshot_server(server))))
    assert type(twin) is PartitionedServer
    assert [part.label for part in twin.partitions] == [
        part.label for part in server.partitions
    ]
    for target in (server, twin):
        target.join("late", at_time=harness.now)
    ours, theirs = server.rekey(now=harness.now), twin.rekey(now=harness.now)
    assert [ek.ciphertext for ek in theirs.encrypted_keys] == [
        ek.ciphertext for ek in ours.encrypted_keys
    ]
    assert theirs.breakdown == ours.breakdown


def test_a_single_partition_needs_no_dek():
    server = composite("hash", 1, dek=False)
    server.join("a")
    result = server.rekey()
    assert "group-key" not in result.breakdown
    assert server.group_key() == server.partitions[0].tree.root.key
    with pytest.raises(ValueError):
        composite("hash", 2, dek=False)


def test_the_one_keytree_policy_takes_one_partition():
    """Hash placement is the one-keytree scheme's: there is nowhere else
    to put a member, and more than one partition does not fit it."""
    assert SinglePartitionPlacement().accepts(1)
    assert not any(SinglePartitionPlacement().accepts(k) for k in (0, 2, 4))
    assert {SinglePartitionPlacement().place(f"m{i}", 0.0, 1) for i in range(20)} == {0}
    with pytest.raises(ValueError, match="does not fit"):
        composite("hash", 2)


def test_round_robin_fills_partitions_in_turn():
    server = composite("round-robin", 3)
    for i in range(9):
        server.join(f"m{i}")
    server.rekey()
    assert [part.size for part in server.partitions] == [3, 3, 3]


def test_migration_alone_does_not_roll_the_dek():
    server = composite("by-age", 2)
    server.join("a", at_time=0.0)
    server.rekey(now=0.0)
    before = server.group_key()
    result = server.rekey(now=60.0)
    assert result.migrated == ["a"]
    assert "a" in server.partitions[1]
    assert server.group_key() == before
    assert "group-key" not in result.breakdown


# ----------------------------------------------------------------------
# join attributes: outside input, checked by the policy
# ----------------------------------------------------------------------

BAD_LOSS_RATES = [float("nan"), -5.0, 17, float("inf"), -0.0001, 1.0001, "0.2", None, True, False]


@pytest.mark.parametrize(
    "build,attributes",
    [
        *[
            (LossHomogenizedServer, {"loss_rate": rate})
            for rate in BAD_LOSS_RATES
        ],
        (LossHomogenizedServer, {}),
        *[
            (lambda mode=mode: TwoPartitionServer(mode=mode), {"member_class": "bogus"})
            for mode in ("qt", "tt", "pt")
        ],
        (lambda: TwoPartitionServer(mode="pt"), {"member_class": None}),
        (lambda: TwoPartitionServer(mode="pt"), {}),
    ],
    ids=lambda value: repr(value) if isinstance(value, dict) else None,
)
def test_bad_join_attributes_are_rejected_and_leave_no_trace(build, attributes):
    """``nan`` used to land in the 0.20 tree, ``-5.0`` in the 0.02 tree,
    ``"bogus"`` was stored; and a join that did raise stayed queued with a
    key drawn for it."""
    server = build()
    before = (server.keygen.state(), server.policy.state())
    with pytest.raises(ValueError):
        server.join("m", **attributes)
    assert (server.keygen.state(), server.policy.state()) == before
    assert server._pending_joins == {}
    # The id is still free, and the batch that follows is healthy.
    good = {name: default_join_attributes("m")[name] for name in server.join_attributes}
    server.join("m", **good)
    server.rekey()
    assert "m" in server


@pytest.mark.parametrize(
    "rate,placed", [(0, 0.02), (0.0, 0.02), (0.1, 0.02), (0.12, 0.20), (1, 0.20), (1.0, 0.20)]
)
def test_loss_rates_in_range_are_placed_nearest(rate, placed):
    server = LossHomogenizedServer(class_rates=(0.20, 0.02))
    server.join("m", loss_rate=rate)
    server.rekey()
    assert server.tree_of("m") == placed


@pytest.mark.parametrize("scheme", sorted(SCHEME_FACTORIES))
def test_join_attributes_name_exactly_what_join_accepts(scheme):
    """One source — the policy's ``attributes`` — read by the simulator and
    the conformance battery; it must be what ``join()`` really does."""
    spec = SCHEME_FACTORIES[scheme]
    server = spec.factory()
    assert spec.attributes == tuple(server.join_attributes) == server.policy.attributes
    valid = default_join_attributes("m0")
    named = {name: valid[name] for name in server.join_attributes}
    server.join("m0", **named)
    for name in valid:
        if name in server.join_attributes:
            continue
        with pytest.raises(TypeError):
            server.join("m1", **{**named, name: valid[name]})
    with pytest.raises(TypeError):
        server.join("m1", **named, favourite_colour="blue")
    server.rekey()
    assert server.members() == ["m0"]


def test_every_policy_round_trips_its_state():
    assert set(POLICIES) == {"by-age", "class-oracle", "nearest-loss", "round-robin", "hash"}
    for scheme, spec in SCHEME_FACTORIES.items():
        server = spec.factory()
        for i in range(5):
            server.join(
                f"m{i}",
                **{
                    name: default_join_attributes(f"m{i}")[name]
                    for name in server.join_attributes
                },
            )
        server.leave("m4")  # cancelled before admission
        state = json.loads(json.dumps(server.policy.state()))
        twin = policy_from_state(state)
        assert type(twin) is type(server.policy), scheme
        assert twin.state() == server.policy.state(), scheme
        assert set(twin.fields) == set(vars(server.policy)), scheme
        # State is a copy both ways: nothing in it is the policy's own.
        for field in twin.fields:
            value = getattr(server.policy, field)
            if isinstance(value, (dict, list)):
                assert server.policy.state()[field] is not value
                assert getattr(twin, field) is not state[field]


def test_policies_have_no_placeholder_defaults():
    """A policy that could be built empty would be an invalid one
    (no classes to fill in turn, no rate to be nearest to)."""
    for build in (AgePlacement, NearestLossPlacement, RoundRobinPlacement):
        with pytest.raises(TypeError):
            build()
    for build in (NearestLossPlacement, RoundRobinPlacement):
        with pytest.raises(ValueError):
            build(())
    with pytest.raises(ValueError, match="does not fit"):
        keygen = KeyGenerator(0)
        PartitionedServer(
            [TreePartition.build("p", "g/p", 3, keygen)] * 3,
            RoundRobinPlacement((0.2, 0.02)),
            keygen,
            keygen=keygen,
        )


# ----------------------------------------------------------------------
# one stitch, no type ladder, no executors
# ----------------------------------------------------------------------


def test_one_function_rolls_the_group_key():
    rollers = [
        (path.name, match.group(0))
        for path in sorted((SRC / "server").glob("*.py"))
        for match in re.finditer(r"def \w*roll\w*\(|\.rekey\((?:previous|self\._dek)", path.read_text())
    ]
    assert rollers == [
        ("partitioned.py", "def _roll_group_key("),
        ("partitioned.py", ".rekey(previous"),
    ]


def test_no_server_type_ladder_and_no_shard_executors():
    for relative in (
        "server/snapshot.py",
        "testing/oracle.py",
        "testing/invariants.py",
        "sim/simulation.py",
    ):
        assert "isinstance(server" not in (SRC / relative).read_text(), relative
    pools = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        assert "ThreadPoolExecutor" not in text, path
        assert not re.search(r"^\s*(import|from) multiprocessing", text, re.M), path
        if "ProcessPoolExecutor" in text:
            pools.append(str(path.relative_to(SRC)))
    assert pools == ["experiments/parallel.py"]
    assert not (SRC / "keytree" / "sharded.py").exists()


def test_no_hash_sharding_and_no_private_key_streams():
    """The hash-sharded scheme is retired with everything only it used:
    its module, member-to-shard hashing and per-shard key streams.  And
    the periodic scheduler nothing called is gone."""
    assert not (SRC / "server" / "sharded.py").exists()
    assert not (SRC / "server" / "scheduler.py").exists()
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        assert not re.search(r"def (derive_stream|shard_of)\b", text), path


def test_one_server_class():
    """Every scheme is the one class; there is no base class left to
    subclass beside it."""
    for scheme, spec in SCHEME_FACTORIES.items():
        server = spec.factory()
        assert isinstance(server, PartitionedServer), scheme
        assert type(server).__mro__[-2:] == (PartitionedServer, object), scheme
