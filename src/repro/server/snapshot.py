"""Key-server snapshot/restore.

Dumps the complete operational state of any of the repository's servers —
key trees, queue partitions, group DEK, member registry, pending batches,
migration clocks, placement maps, and the key-generator state — into one
JSON-compatible dict, and restores a server that behaves identically from
the next ``rekey()`` onward (same epochs, same node ids, same future key
material).

A snapshot contains every secret the server knows.  Encrypt at rest.
"""

from __future__ import annotations

from typing import Dict

from repro.crypto.material import KeyGenerator, KeyMaterial
from repro.keytree.flat import FlatKeyTree, FlatRekeyer
from repro.keytree.queuepartition import QueuePartition
from repro.server.base import GroupKeyServer, Registration
from repro.server.losshomog import LossHomogenizedServer
from repro.server.onetree import OneTreeServer
from repro.server.sharded import ShardedOneTreeServer
from repro.server.twopartition import TwoPartitionServer

FORMAT_VERSION = 1


def _key_to_dict(key: KeyMaterial) -> Dict:
    return {"id": key.key_id, "version": key.version, "secret": key.secret.hex()}


def _key_from_dict(data: Dict) -> KeyMaterial:
    return KeyMaterial(
        key_id=data["id"],
        version=int(data["version"]),
        secret=bytes.fromhex(data["secret"]),
    )


def _registration_to_dict(registration: Registration) -> Dict:
    return {
        "member": registration.member_id,
        "key": _key_to_dict(registration.individual_key),
        "join_time": registration.join_time,
    }


def _registration_from_dict(data: Dict) -> Registration:
    return Registration(
        member_id=data["member"],
        individual_key=_key_from_dict(data["key"]),
        join_time=float(data["join_time"]),
    )


def _base_state(server: GroupKeyServer) -> Dict:
    return {
        "group": server.group,
        "next_epoch": server._next_epoch,
        "members": [_registration_to_dict(r) for r in server._members.values()],
        "pending_joins": [
            _registration_to_dict(r) for r in server._pending_joins.values()
        ],
        "pending_leaves": dict(server._pending_leaves),
    }


def _restore_base(server: GroupKeyServer, data: Dict) -> None:
    server._next_epoch = int(data["next_epoch"])
    server._members = {
        r["member"]: _registration_from_dict(r) for r in data["members"]
    }
    server._pending_joins = {
        r["member"]: _registration_from_dict(r) for r in data["pending_joins"]
    }
    server._pending_leaves = {
        member: float(t) for member, t in data["pending_leaves"].items()
    }


def _queue_to_dict(queue: QueuePartition) -> Dict:
    return {
        "name": queue.name,
        "keys": [_key_to_dict(key) for key in queue._keys.values()],
    }


def _restore_queue(queue: QueuePartition, data: Dict) -> None:
    keys = [_key_from_dict(entry) for entry in data["keys"]]
    queue._keys = {key.key_id.split(":", 1)[1]: key for key in keys}


def _restore_tree(data: Dict, keygen: KeyGenerator, next_epoch) -> tuple:
    """``(tree, rekeyer)`` from a tree dump and its rekeyer's epoch."""
    tree = FlatKeyTree.from_dict(data, keygen=keygen)
    rekeyer = FlatRekeyer(tree)
    rekeyer._next_epoch = int(next_epoch)
    return tree, rekeyer


def snapshot_server(server: GroupKeyServer) -> Dict:
    """Serialize any supported server to a JSON-compatible dict."""
    state: Dict = {
        "format": FORMAT_VERSION,
        "base": _base_state(server),
        "keygen": server.keygen.state(),
    }
    if isinstance(server, OneTreeServer):
        state["kind"] = "one-keytree"
        state["degree"] = server.tree.degree
        state["join_refresh"] = server.join_refresh
        state["tree"] = server.tree.to_dict()
        state["tree_epoch"] = server.rekeyer._next_epoch
    elif isinstance(server, TwoPartitionServer):
        state["kind"] = "two-partition"
        state["mode"] = server.mode
        state["s_period"] = server.s_period
        state["degree"] = server.degree
        state["dek"] = _key_to_dict(server._dek)
        state["s_entered"] = dict(server._s_entered)
        state["member_class"] = dict(server._member_class)
        state["l_tree"] = server.l_tree.to_dict()
        state["l_epoch"] = server.l_rekeyer._next_epoch
        if server.s_queue is not None:
            state["s_queue"] = _queue_to_dict(server.s_queue)
        else:
            assert server.s_tree is not None and server.s_rekeyer is not None
            state["s_tree"] = server.s_tree.to_dict()
            state["s_epoch"] = server.s_rekeyer._next_epoch
    elif isinstance(server, LossHomogenizedServer):
        state["kind"] = "loss-homogenized"
        state["placement"] = server.placement
        state["degree"] = server.degree
        state["class_rates"] = list(server.class_rates)
        state["dek"] = _key_to_dict(server._dek)
        state["assignment"] = dict(server._assignment)
        state["round_robin_index"] = server._round_robin_index
        state["pending_rate"] = dict(server._pending_rate)
        state["trees"] = {
            str(rate): tree.to_dict() for rate, tree in server.trees.items()
        }
        state["tree_epochs"] = {
            str(rate): rekeyer._next_epoch
            for rate, rekeyer in server.rekeyers.items()
        }
    elif isinstance(server, ShardedOneTreeServer):
        state["kind"] = "sharded-keytree"
        state["shards"] = server.shards
        state["workers"] = server.workers
        state["backend"] = server.backend
        state["degree"] = server.sharded.degree
        state["join_refresh"] = server.join_refresh
        state["payload"] = server.payload
        state["dek_stream"] = server._dek_stream.state()
        if server._dek is not None:
            state["dek"] = _key_to_dict(server._dek)
        # Each shard dump carries its tree (attachment heaps included),
        # its private RNG stream state and its rekeyer epoch, so the
        # restored server re-derives identical payloads.
        state["shard_dumps"] = {
            str(shard): dump
            for shard, dump in server.sharded.dump_shards().items()
        }
    else:
        raise TypeError(f"cannot snapshot server type {type(server).__name__}")
    return state


def restore_server(state: Dict) -> GroupKeyServer:
    """Rebuild a server from :func:`snapshot_server` output."""
    if state.get("format") != FORMAT_VERSION:
        raise ValueError(f"unsupported snapshot format: {state.get('format')!r}")
    kind = state["kind"]
    group = state["base"]["group"]
    # Construct with a throwaway generator, restore structures against the
    # real one, then pin the generator state last (construction consumes
    # generator draws that must not advance the restored counter).
    keygen = KeyGenerator.from_state(state["keygen"])

    server: GroupKeyServer
    # Tree dumps are one format whichever tree class wrote them, so the
    # "tree_kernel" field snapshots carried while there were two kernels
    # to choose from is not read.
    if kind == "one-keytree":
        # Older snapshots predate the join_refresh field; they were all
        # random-refresh servers.
        server = OneTreeServer(
            degree=int(state["degree"]),
            group=group,
            join_refresh=state.get("join_refresh", "random"),
        )
        server.keygen = keygen
        server.tree, server.rekeyer = _restore_tree(
            state["tree"], keygen, state["tree_epoch"]
        )
    elif kind == "two-partition":
        server = TwoPartitionServer(
            mode=state["mode"],
            s_period=float(state["s_period"]),
            degree=int(state["degree"]),
            group=group,
        )
        server.keygen = keygen
        server._dek = _key_from_dict(state["dek"])
        server._s_entered = {m: float(t) for m, t in state["s_entered"].items()}
        server._member_class = dict(state["member_class"])
        server.l_tree, server.l_rekeyer = _restore_tree(
            state["l_tree"], keygen, state["l_epoch"]
        )
        if "s_queue" in state:
            assert server.s_queue is not None
            server.s_queue.keygen = keygen
            _restore_queue(server.s_queue, state["s_queue"])
        else:
            server.s_tree, server.s_rekeyer = _restore_tree(
                state["s_tree"], keygen, state["s_epoch"]
            )
    elif kind == "loss-homogenized":
        server = LossHomogenizedServer(
            class_rates=tuple(state["class_rates"]),
            placement=state["placement"],
            degree=int(state["degree"]),
            group=group,
        )
        server.keygen = keygen
        server._dek = _key_from_dict(state["dek"])
        server._assignment = {m: float(r) for m, r in state["assignment"].items()}
        server._round_robin_index = int(state["round_robin_index"])
        server._pending_rate = {
            m: float(r) for m, r in state["pending_rate"].items()
        }
        for rate_text, tree_data in state["trees"].items():
            rate = float(rate_text)
            server.trees[rate], server.rekeyers[rate] = _restore_tree(
                tree_data, keygen, state["tree_epochs"][rate_text]
            )
    elif kind == "sharded-keytree":
        server = ShardedOneTreeServer(
            shards=int(state["shards"]),
            workers=int(state["workers"]),
            backend=state["backend"],
            degree=int(state["degree"]),
            group=group,
            join_refresh=state["join_refresh"],
            payload=state["payload"],
        )
        server.keygen = keygen
        server._dek_stream = KeyGenerator.from_state(state["dek_stream"])
        server._dek = _key_from_dict(state["dek"]) if "dek" in state else None
        server.sharded.load_shards(
            {int(shard): dump for shard, dump in state["shard_dumps"].items()}
        )
    else:
        raise ValueError(f"unknown server kind {kind!r}")

    _restore_base(server, state["base"])
    # Pin the generator counter last — construction and tree restoration
    # above consumed draws that must not count.
    server.keygen._root = bytes.fromhex(state["keygen"]["root"])
    server.keygen._counter = int(state["keygen"]["counter"])
    return server
