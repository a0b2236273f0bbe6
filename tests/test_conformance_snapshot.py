"""Differential conformance for snapshot/restore.

A restored server must be *behaviourally identical* to the live one it
was dumped from: same future epochs, same batch costs, same group-key
material — and it must keep satisfying every security invariant when the
second half of a scenario is replayed against it.  Members who absorbed
the live server's broadcasts must keep decrypting after the handover,
which is exactly the operational story (server failover mid-session).
"""

import json
import re

import pytest

from repro.keytree.flat import FlatKeyTree
from repro.server.snapshot import restore_server, snapshot_server
from repro.testing import (
    SCHEME_FACTORIES,
    ConformanceHarness,
    Scenario,
    default_join_attributes,
)
from repro.testing.conformance import S_PERIOD
from repro.testing.invariants import _tree_structures
from repro.testing.oracle import with_object_trees
from repro.testing.tree import KeyTree
from tests.helpers import load_golden_generator

_golden = load_golden_generator("generate_server_golden")
_golden_payloads = json.loads(_golden.FIXTURE.read_text())["schemes"]
_format_1 = json.loads(_golden.SNAPSHOTS.read_text())

PREFIX = Scenario.parse(
    f"+a +b +c +d +e . -b . t+{S_PERIOD:g} +f .", name="prefix"
)
SUFFIX = Scenario.parse("+g -a . t+60 -c +h . !*", name="suffix")

SNAPSHOT_SCHEMES = sorted(SCHEME_FACTORIES)
#: Format-1 snapshots of the retired hash-sharded scheme: refused.
RETIRED_SNAPSHOTS = ("sharded", "sharded-process")


def run_prefix(spec, build=lambda server: server):
    harness = ConformanceHarness(build(spec.factory()))
    PREFIX.run(
        harness,
        attribute_filter=spec.attributes,
        join_defaults=default_join_attributes,
    )
    return harness


@pytest.mark.parametrize("name", SNAPSHOT_SCHEMES)
def test_restored_server_is_behaviourally_identical(name):
    spec = SCHEME_FACTORIES[name]
    live = run_prefix(spec)
    state = snapshot_server(live.server)
    # The dump must be pure JSON (the documented at-rest format).
    state = json.loads(json.dumps(state))
    restored_server = restore_server(state)

    # Graft the harness onto the restored server: same members, same
    # shadow, same history — only the server object is swapped.
    restored = live
    restored.server = restored_server

    SUFFIX.run(
        restored,
        attribute_filter=spec.attributes,
        join_defaults=default_join_attributes,
    )


@pytest.mark.parametrize("name", SNAPSHOT_SCHEMES)
def test_live_and_restored_emit_identical_batches(name):
    spec = SCHEME_FACTORIES[name]
    live = run_prefix(spec)
    state = snapshot_server(live.server)
    twin = restore_server(json.loads(json.dumps(state)))

    attrs = {
        k: v
        for k, v in default_join_attributes("z1").items()
        if k in spec.attributes
    }
    for server in (live.server, twin):
        server.join("z1", at_time=1000.0, **attrs)
        server.leave("d", at_time=1000.0)
    live_result = live.server.rekey(now=1000.0)
    twin_result = twin.rekey(now=1000.0)

    assert twin_result.epoch == live_result.epoch
    assert twin_result.cost == live_result.cost
    assert twin_result.breakdown == live_result.breakdown
    assert sorted(twin_result.joined) == sorted(live_result.joined)
    assert sorted(twin_result.departed) == sorted(live_result.departed)
    assert twin_result.migrated == live_result.migrated
    # Same future key material, not just same shapes.
    assert twin.group_key().secret == live.server.group_key().secret
    live_wire = {
        (ek.wrapping_id, ek.wrapping_version, ek.payload_id, ek.payload_version)
        for ek in live_result.encrypted_keys
    }
    twin_wire = {
        (ek.wrapping_id, ek.wrapping_version, ek.payload_id, ek.payload_version)
        for ek in twin_result.encrypted_keys
    }
    assert twin_wire == live_wire


def _wire(result):
    return [
        (
            ek.wrapping_id,
            ek.wrapping_version,
            ek.payload_id,
            ek.payload_version,
            ek.ciphertext,
        )
        for ek in result.encrypted_keys
    ]


@pytest.mark.parametrize("name", sorted(SCHEME_FACTORIES))
def test_object_tree_snapshot_restores_into_the_shipped_server(name):
    """Dumps are one format whichever tree class wrote them: a snapshot
    recorded while servers still built object trees — it says so, in a
    field nothing reads any more — restores into today's server, which
    carries on byte for byte where the object trees would have."""
    spec = SCHEME_FACTORIES[name]
    live = run_prefix(spec, build=with_object_trees)
    assert all(isinstance(t, KeyTree) for _, t in _tree_structures(live.server))
    state = json.loads(json.dumps(snapshot_server(live.server)))
    assert "tree_kernel" not in state
    state["tree_kernel"] = "object"
    twin = restore_server(state)
    assert all(isinstance(t, FlatKeyTree) for _, t in _tree_structures(twin))

    # Continue churning both servers in lock step: every subsequent batch
    # must match byte for byte (order and ciphertexts included).
    for step in range(4):
        now = 1000.0 + 10.0 * step
        member = f"x{step}"
        attrs = {
            k: v
            for k, v in default_join_attributes(member).items()
            if k in spec.attributes
        }
        for server in (live.server, twin):
            server.join(member, at_time=now, **attrs)
            if step == 1:
                server.leave("c", at_time=now)
        live_result = live.server.rekey(now=now)
        twin_result = twin.rekey(now=now)
        assert twin_result.epoch == live_result.epoch
        assert twin_result.breakdown == live_result.breakdown
        assert _wire(twin_result) == _wire(live_result)
    assert twin.group_key().secret == live.server.group_key().secret


@pytest.mark.parametrize(
    "name", sorted(set(_format_1["snapshots"]) - set(RETIRED_SNAPSHOTS))
)
def test_format_1_snapshot_continues_the_golden_trace(name):
    """Snapshots written before the servers became one class (format 1,
    taken mid-trace with a batch queued) still restore, and the restored
    server emits the rest of the golden trace byte for byte."""
    state = _format_1["snapshots"][name]
    assert state["format"] == 1
    first = _format_1["batch"]
    server = restore_server(state)
    records = _golden.replay(name, server=server, start=first)
    expected = _golden_payloads[name][first - 1:]
    assert len(records) == len(expected) >= 4
    assert records == expected


@pytest.mark.parametrize("name", RETIRED_SNAPSHOTS)
def test_format_1_sharded_snapshot_is_refused(name):
    """The hash-sharded scheme is retired: its snapshots (one of them
    written on the since-deleted process backend) are refused, typed."""
    state = _format_1["snapshots"][name]
    assert (state["format"], state["kind"]) == (1, "sharded-keytree")
    assert (state.get("backend") == "process") == (name == "sharded-process")
    with pytest.raises(ValueError, match="sharded-keytree"):
        restore_server(state)


@pytest.mark.parametrize("name", SNAPSHOT_SCHEMES)
def test_every_scheme_writes_the_one_layout(name):
    live = run_prefix(SCHEME_FACTORIES[name])
    state = json.loads(json.dumps(snapshot_server(live.server)))
    assert state["format"] == 2
    assert set(state) - {"dek"} == {
        "format", "kind", "base", "keygen", "join_refresh", "policy", "partitions",
    }
    assert ("dek" in state) == (live.server._dek is not None)
    assert not any("stream" in part for part in state["partitions"])
    assert [part["label"] for part in state["partitions"]] == [
        part.label for part in live.server.partitions
    ]
    twin = restore_server(state)
    assert type(twin) is type(live.server)
    assert twin.name == live.server.name
    # (Tree dumps drop dead heap entries on the way through, so those are
    # compared by the byte-identity tests above, not verbatim here.)
    again = json.loads(json.dumps(snapshot_server(twin)))
    for part in again["partitions"] + state["partitions"]:
        part.pop("tree", None)
    assert again == state


_DAMAGE = [
    {"format": 3},
    {"format": None},
    {"kind": "three-partition"},
    {"kind": None},
    {"kind": "sharded-keytree"},
]
_POLICY_DAMAGE = [
    {"policy": {"name": "by-mood", "pending": {}}},
    {"policy": {"pending": {}}},
    {"policy": {"name": "by-age"}},
    {"dek_stream": {"root": "00" * 32, "counter": 0}},
]


@pytest.mark.parametrize(
    "fmt,damage",
    [(2, d) for d in _DAMAGE + _POLICY_DAMAGE] + [(1, d) for d in _DAMAGE],
    ids=lambda value: json.dumps(value),
)
def test_unreadable_snapshots_raise_value_error(fmt, damage):
    """An unknown kind or policy name, a malformed policy, an unsupported
    format: ``ValueError`` naming the problem, never a ``KeyError``."""
    if fmt == 2:
        live = run_prefix(SCHEME_FACTORIES["tt"])
        state = json.loads(json.dumps(snapshot_server(live.server)))
    else:
        state = _format_1["snapshots"]["tt"]
    assert state["format"] == fmt
    with pytest.raises(ValueError):
        restore_server({**state, **damage})


#: Damage to one key-tree node: a secret that is not ``KEY_SIZE`` bytes
#: (which once loaded, shifting every later slot's key) or a negative
#: version.
_NODE_DAMAGE = [
    {"secret": "00" * 31},
    {"secret": "00" * 33},
    {"secret": ""},
    {"version": -3},
]


def _preorder(node):
    yield node
    for child in node.get("children", ()):
        yield from _preorder(child)


@pytest.mark.parametrize("position", [0, -1], ids=["root", "last"])
@pytest.mark.parametrize("damage", _NODE_DAMAGE, ids=json.dumps)
def test_a_damaged_tree_node_is_refused_by_id(damage, position):
    """The tree loader refuses a bad node secret or version with a
    ``ValueError`` naming the node, whether a snapshot reaches it through
    :func:`restore_server` or a dump goes straight to ``from_dict``."""
    live = run_prefix(SCHEME_FACTORIES["tt"])
    state = json.loads(json.dumps(snapshot_server(live.server)))
    node = list(_preorder(state["partitions"][-1]["tree"]["root"]))[position]
    node.update(damage)
    with pytest.raises(ValueError, match=re.escape(repr(node["id"]))):
        restore_server(state)

    tree = FlatKeyTree(name="t")
    for index in range(10):
        tree.add_member(f"m{index}")
    dump = tree.to_dict()
    node = list(_preorder(dump["root"]))[position]
    node.update(damage)
    with pytest.raises(ValueError, match=re.escape(repr(node["id"]))):
        FlatKeyTree.from_dict(dump)


@pytest.mark.parametrize(
    "scheme,field,value",
    [
        ("loss-homogenized", "class_rates", [0.2]),
        ("loss-random", "class_rates", [0.2, 0.1, 0.02]),
        ("tt", "partitions", 1),
        ("pt", "partitions", 1),
    ],
)
def test_a_policy_that_does_not_fit_the_partitions_is_refused(scheme, field, value):
    """A policy sized for other partitions than the snapshot carries would
    place a joiner outside the list (or never fill part of it)."""
    live = run_prefix(SCHEME_FACTORIES[scheme])
    state = json.loads(json.dumps(snapshot_server(live.server)))
    if field == "partitions":
        state["partitions"] = state["partitions"][-value:]
    else:
        assert len(state["partitions"]) != len(value)
        state["policy"][field] = value
    with pytest.raises(ValueError, match="does not fit"):
        restore_server(state)


def test_a_partition_key_stream_is_refused():
    """Only the retired hash-sharded scheme gave a partition its own key
    stream; a snapshot carrying one describes a server there is not."""
    live = run_prefix(SCHEME_FACTORIES["loss-3-trees"])
    state = json.loads(json.dumps(snapshot_server(live.server)))
    restore_server(json.loads(json.dumps(state)))
    state["partitions"][1]["stream"] = {"root": "00" * 32, "counter": 3}
    with pytest.raises(ValueError, match="stream"):
        restore_server(state)


@pytest.mark.parametrize(
    "field", ["keygen", "base", "policy", "partitions", "join_refresh", "kind"]
)
def test_a_snapshot_missing_a_field_is_refused_by_name(field):
    """A missing field used to surface as ``KeyError`` from deep inside
    the loader; it is a ``ValueError`` that names the field."""
    live = run_prefix(SCHEME_FACTORIES["tt"])
    state = json.loads(json.dumps(snapshot_server(live.server)))
    del state[field]
    with pytest.raises(ValueError, match=field):
        restore_server(state)


@pytest.mark.parametrize("field", ["keygen", "base", "kind"])
def test_a_format_1_snapshot_missing_a_field_is_refused_by_name(field):
    """The format-1 upgrade copies these across; a missing one must not
    reach the loader as ``None``."""
    state = json.loads(json.dumps(_format_1["snapshots"]["tt"]))
    del state[field]
    with pytest.raises(ValueError, match=field):
        restore_server(state)


@pytest.mark.parametrize("field", ["members", "next_epoch", "group"])
def test_a_snapshot_base_missing_a_field_is_refused_by_name(field):
    live = run_prefix(SCHEME_FACTORIES["tt"])
    for state in (
        json.loads(json.dumps(snapshot_server(live.server))),
        json.loads(json.dumps(_format_1["snapshots"]["tt"])),
    ):
        del state["base"][field]
        with pytest.raises(ValueError, match=field):
            restore_server(state)


@pytest.mark.parametrize(
    "document", [None, [], "snapshot", 2, [("format", 2)]], ids=repr
)
def test_a_snapshot_that_is_no_dict_is_refused(document):
    """A list or a string used to fail with ``AttributeError``."""
    with pytest.raises(ValueError, match="dict"):
        restore_server(document)


_DELETE = object()
#: One damaged field per row: its path in the document, the value it gets
#: (or ``_DELETE``) and what the refusal says.  Each once escaped the
#: loader as a TypeError, KeyError or AttributeError, or was accepted.
_TYPED_DAMAGE = {
    "partitions-not-dicts": (("partitions",), [1], r"partitions\[0\] must be a dict"),
    "partitions-not-a-list": (("partitions",), "tree", "partitions must be a list"),
    "partition-without-label": (("partitions", 0, "label"), _DELETE, r"\['label'\]"),
    "member-without-key": (("base", "members", 0, "key"), _DELETE, r"\['key'\]"),
    "members-not-a-list": (("base", "members"), 5, "members must be a list"),
    "pending-leaves-a-list": (("base", "pending_leaves"), ["a"], "leaves must be a"),
    "join-time-null": (("base", "members", 0, "join_time"), None, "time must be a"),
    "negative-next-epoch": (("base", "next_epoch"), -1, "epoch must be an integer"),
    "keygen-not-a-dict": (("keygen",), "00", "keygen must be a dict"),
    "keygen-without-counter": (("keygen", "counter"), _DELETE, r"\['counter'\]"),
    "policy-not-a-dict": (("policy",), "by-age", "policy must be a dict"),
    "dek-not-a-dict": (("dek",), "00" * 32, "dek must be a dict"),
    "s-period-a-string": (("policy", "s_period"), "300", "s_period cannot be a str"),
    "entered-a-list": (("policy", "entered"), [], "entered cannot be a list"),
}


@pytest.mark.parametrize("name", sorted(_TYPED_DAMAGE))
def test_a_field_of_the_wrong_type_is_refused_by_name(name):
    """A field present with the wrong thing in it is a ``ValueError``
    naming it, like a missing one."""
    (*parents, last), value, message = _TYPED_DAMAGE[name]
    live = run_prefix(SCHEME_FACTORIES["tt"])
    state = holder = json.loads(json.dumps(snapshot_server(live.server)))
    for key in parents:
        holder = holder[key]
    if value is _DELETE:
        del holder[last]
    else:
        holder[last] = value
    with pytest.raises(ValueError, match=message):
        restore_server(state)


def test_snapshot_round_trip_preserves_resync():
    spec = SCHEME_FACTORIES["tt"]
    live = run_prefix(spec)
    twin = restore_server(json.loads(json.dumps(snapshot_server(live.server))))
    restored = live
    restored.server = twin
    restored.check_all_resyncs()
