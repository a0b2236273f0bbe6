"""Key-server snapshot/restore.

Dumps the complete operational state of a
:class:`~repro.server.partitioned.PartitionedServer` — its partitions (key
trees with their attachment heaps, queue partitions), the placement
policy's state (migration clocks, pending placements), the group DEK,
member registry, pending batches and the key stream — into one
JSON-compatible dict, and restores a server that behaves identically from
the next ``rekey()`` onward (same epochs, same node ids, same future key
material).

One layout serves every scheme (``FORMAT_VERSION = 2``)::

    {"format": 2, "kind": ..., "base": ..., "keygen": ..., "join_refresh": ...,
     "policy": policy.state(), "partitions": [partition.dump(), ...],
     "dek": ...}                             # only if there is a DEK

Format-1 snapshots (one layout per server class, written before the
classes became one) are still read: :func:`_upgrade_format_1` reshapes the
dict, nothing else.  A document this module cannot rebuild a server from
— not a dict, a missing field, a field of the wrong type, an epoch or key
counter out of range, an unknown kind or policy, or a snapshot of the
retired hash-sharded scheme (kind ``sharded-keytree``, a ``dek_stream``
or a partition ``stream``) — raises a ``ValueError`` naming the field.

A snapshot contains every secret the server knows.  Encrypt at rest.
"""

from __future__ import annotations

from typing import Dict

from repro.crypto.material import KeyGenerator, KeyMaterial
from repro.keytree.queuepartition import QueuePartition
from repro.server.base import Registration
from repro.server.losshomog import LossHomogenizedServer
from repro.server.onetree import OneTreeServer
from repro.server.partitioned import PartitionedServer, TreePartition
from repro.server.placement import policy_from_state
from repro.server.twopartition import TwoPartitionServer

FORMAT_VERSION = 2

#: ``kind`` -> the class a snapshot of that kind restores into.
_KINDS = {
    cls.kind: cls
    for cls in (
        PartitionedServer,
        OneTreeServer,
        TwoPartitionServer,
        LossHomogenizedServer,
    )
}
#: Fields a format-2 document and its ``base`` must carry.
_FIELDS = ("kind", "base", "keygen", "join_refresh", "policy", "partitions")
_BASE_FIELDS = ("group", "next_epoch", "members", "pending_joins", "pending_leaves")
_KEY_FIELDS = ("id", "version", "secret")


def _base_state(server: PartitionedServer) -> Dict:
    def registrations(table: Dict[str, Registration]) -> list:
        return [
            {"member": r.member_id, "key": r.individual_key.to_dict(), "join_time": r.join_time}
            for r in table.values()
        ]

    return {
        "group": server.group,
        "next_epoch": server._next_epoch,
        "members": registrations(server._members),
        "pending_joins": registrations(server._pending_joins),
        "pending_leaves": dict(server._pending_leaves),
    }


def _restore_base(server: PartitionedServer, data: Dict) -> None:
    def registrations(entries: list) -> Dict[str, Registration]:
        return {
            e["member"]: Registration(
                e["member"], KeyMaterial.from_dict(e["key"]), float(e["join_time"])
            )
            for e in entries
        }

    server._next_epoch = data["next_epoch"]
    server._members = registrations(data["members"])
    server._pending_joins = registrations(data["pending_joins"])
    server._pending_leaves = {
        member: float(t) for member, t in data["pending_leaves"].items()
    }


def snapshot_server(server: PartitionedServer) -> Dict:
    """Serialize a partitioned server to a JSON-compatible dict."""
    if getattr(server, "kind", None) not in _KINDS:
        raise TypeError(f"cannot snapshot server type {type(server).__name__}")
    state: Dict = {
        "format": FORMAT_VERSION,
        "kind": server.kind,
        "base": _base_state(server),
        "keygen": server.keygen.state(),
        "join_refresh": server.join_refresh,
        "policy": server.policy.state(),
        "partitions": [part.dump() for part in server.partitions],
    }
    if server._dek is not None:
        state["dek"] = server._dek.to_dict()
    return state


def _upgrade_format_1(old: Dict) -> Dict:
    """Reshape a format-1 snapshot into the one layout; reads no server.

    Fields that selected an execution strategy (``tree_kernel``) are
    dropped: there is one strategy.  Placement maps the partitions
    themselves imply (``assignment``, admitted members' ``member_class``)
    are dropped too.
    """
    kind = old.get("kind")
    new = {key: old.get(key) for key in ("kind", "base", "keygen")}
    new["format"] = FORMAT_VERSION
    new["join_refresh"] = old.get("join_refresh", "random")
    pending = {entry["member"] for entry in old["base"]["pending_joins"]}

    def tree(label: str, tree_key: str, epoch_key: str) -> Dict:
        return {"label": label, "tree": old[tree_key], "epoch": old[epoch_key]}

    if kind == "one-keytree":
        new["policy"] = {"name": "hash", "pending": {}}
        new["partitions"] = [tree("tree", "tree", "tree_epoch")]
    elif kind == "two-partition":
        if old["mode"] == "pt":
            new["policy"] = {
                "name": "class-oracle",
                "pending": {
                    member: int(member_class == "Cl")
                    for member, member_class in old["member_class"].items()
                    if member in pending
                },
            }
        else:
            new["policy"] = {
                "name": "by-age",
                "s_period": old["s_period"],
                "entered": old["s_entered"],
                "pending": {},
            }
        if "s_queue" in old:
            s_partition = {"label": "s-partition", "queue": old["s_queue"]}
        else:
            s_partition = tree("s-partition", "s_tree", "s_epoch")
        new["partitions"] = [s_partition, tree("l-partition", "l_tree", "l_epoch")]
    elif kind == "loss-homogenized":
        rates = [float(rate) for rate in old["class_rates"]]
        new["policy"] = {
            "name": "nearest-loss" if old["placement"] == "loss" else "round-robin",
            "class_rates": rates,
            "next_index": old["round_robin_index"],
            "pending": {
                member: rates.index(float(rate))
                for member, rate in old["pending_rate"].items()
            },
        }
        new["partitions"] = [
            {
                "label": f"tree-p{rate:g}",
                "tree": old["trees"][str(rate)],
                "epoch": old["tree_epochs"][str(rate)],
            }
            for rate in rates
        ]
    else:
        raise ValueError(f"unknown server kind {kind!r}")
    if "dek" in old:
        new["dek"] = old["dek"]
    return new


def _require(data: object, fields: tuple, where: str, kind: type = dict) -> None:
    """``ValueError`` naming what is wrong, where a lookup would raise
    ``KeyError``, ``TypeError`` or ``AttributeError``."""
    if not isinstance(data, kind):
        raise ValueError(f"{where} must be a {kind.__name__}, not {type(data).__name__}")
    missing = [field for field in fields if field not in data]
    if missing:
        raise ValueError(f"{where} lacks {missing}")


def _require_count(value: object, minimum: int, where: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValueError(f"{where} must be an integer >= {minimum}, not {value!r}")


def _require_time(value: object, where: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where} must be a number, not {value!r}")


def _check_base(base: object) -> None:
    """Every field of the ``base`` section a restore (or a format-1
    upgrade, which reads the pending joins) goes on to read."""
    _require(base, _BASE_FIELDS, "snapshot base")
    _require_count(base["next_epoch"], 1, "snapshot base next_epoch")
    for table in ("members", "pending_joins"):
        _require(base[table], (), f"snapshot base {table}", list)
        for index, entry in enumerate(base[table]):
            where = f"snapshot base {table}[{index}]"
            _require(entry, ("member", "key", "join_time"), where)
            _require(entry["key"], _KEY_FIELDS, f"{where} key")
            _require_time(entry["join_time"], f"{where} join_time")
    _require(base["pending_leaves"], (), "snapshot base pending_leaves")
    for member, at in base["pending_leaves"].items():
        _require_time(at, f"snapshot base pending_leaves[{member!r}]")


def restore_server(state: Dict) -> PartitionedServer:
    """Rebuild a server from :func:`snapshot_server` output."""
    _require(state, (), "snapshot")
    if state.get("format") == 1:
        _require(state, ("kind", "base", "keygen"), "snapshot")
        _check_base(state["base"])
        state = _upgrade_format_1(state)
    if state.get("format") != FORMAT_VERSION:
        raise ValueError(f"unsupported snapshot format: {state.get('format')!r}")
    if state.get("kind") not in _KINDS:
        raise ValueError(f"unknown server kind {state.get('kind')!r}")
    _require(state, _FIELDS, "snapshot")
    _check_base(state["base"])
    _require(state["keygen"], ("root", "counter"), "snapshot keygen")
    _require_count(state["keygen"]["counter"], 0, "snapshot keygen counter")
    _require(state["policy"], (), "snapshot policy")
    _require(state["partitions"], (), "snapshot partitions", list)
    for index, data in enumerate(state["partitions"]):
        _require(data, ("label",), f"snapshot partitions[{index}]")
    if "dek" in state:
        _require(state["dek"], _KEY_FIELDS, "snapshot dek")
    if "dek_stream" in state or any("stream" in data for data in state["partitions"]):
        # Private key streams: only the retired hash-sharded scheme wrote them.
        raise ValueError(
            "snapshot carries a private key stream (a dek_stream or a partition "
            "stream): the hash-sharded scheme that wrote it is retired"
        )
    keygen = KeyGenerator.from_state(state["keygen"])
    # The factory classes' constructors build fresh partitions; a restore
    # has them ready-made, so it initialises the composite underneath.
    server = object.__new__(_KINDS[state["kind"]])
    PartitionedServer.__init__(
        server,
        [
            (QueuePartition if "queue" in data else TreePartition).load(data, keygen)
            for data in state["partitions"]
        ],
        policy_from_state(state["policy"]),
        "dek" in state,
        keygen=keygen,
        group=state["base"]["group"],
        join_refresh=state["join_refresh"],
    )
    if "dek" in state:
        server._dek = KeyMaterial.from_dict(state["dek"])
    _restore_base(server, state["base"])
    # Pin the generator counter last — rebuilding the trees and the DEK
    # above consumed draws that must not count.
    keygen._counter = state["keygen"]["counter"]
    return server
