"""The reference implementations product code is tested against.

Every server builds its trees on the flat-array kernel
(:mod:`repro.keytree.flat`); :class:`~repro.testing.tree.KeyTree` and
:class:`~repro.testing.lkh.LkhRekeyer` — one object per node, the code a
reader checks against the paper — stay as the reference it must match
byte for byte.  :func:`with_object_trees` puts that reference under a
real server, so a test can drive the same churn through both and compare
payloads, breakdowns and dumps.  It is the only way to get such a server:
no constructor argument, flag, environment variable or snapshot field
selects the reference implementation.

The simulator takes each row's audience from the server, which names
who needs it off its trees
(:meth:`~repro.server.partitioned.PartitionedServer.audiences`).
:func:`useful_subset` and :func:`build_task` derive interest the
receiver's way instead, from
:meth:`~repro.crypto.wrap.WrapIndex.closure` over the keys it holds —
the reference that naming is tested against.  :func:`audiences_of` turns
the per-receiver view a test writes into the audiences a
:class:`~repro.transport.session.TransportTask` takes.

The simulator keeps a :class:`~repro.members.member.Member` for a
tracked sample of its receivers only;
:class:`EveryReceiverSimulation` tracks every one, so each absorbs every
payload it is delivered and is verified — the reference a sampled run's
records are tested against.

Importing this module loads the reference kernel, so nothing on the
product path imports it; :mod:`repro.testing` does not either.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Set

from repro.crypto.wrap import EncryptedKey, RekeyMessage, WrapIndex
from repro.members.member import Member
from repro.server.partitioned import PartitionedServer
from repro.sim.simulation import GroupRekeyingSimulation
from repro.testing.lkh import LkhRekeyer
from repro.testing.serialize import tree_from_dict
from repro.transport.session import TransportTask


def _object_twin(tree, rekeyer) -> tuple:
    """``(KeyTree, LkhRekeyer)`` in the state of ``tree`` / ``rekeyer``."""
    keygen = tree.keygen
    counter = keygen._counter
    twin = tree_from_dict(tree.to_dict(), keygen=keygen)
    # KeyTree() drew a root key that the dump then replaced; the twin must
    # leave the stream where it found it.
    keygen._counter = counter
    twin._heap_slack = tree._heap_slack
    twin_rekeyer = LkhRekeyer(twin)
    twin_rekeyer._next_epoch = rekeyer._next_epoch
    return twin, twin_rekeyer


def with_object_trees(server: PartitionedServer) -> PartitionedServer:
    """Swap every key tree ``server`` holds for an object-tree twin.

    Meant for a server that has processed nothing yet: a twin is rebuilt
    from its tree's dump, which omits the dead heap entries a tree with a
    history carries, so one made later emits the same payloads but sheds
    those entries at other moments and its verbatim dumps can differ.
    Returns ``server``.
    """
    trees = [part for part in server.partitions if hasattr(part, "tree")]
    if not trees:
        raise TypeError(f"no key trees known for {type(server).__name__}")
    for part in trees:
        part.tree, part.rekeyer = _object_twin(part.tree, part.rekeyer)
    return server


def useful_subset(
    member: Member,
    encrypted_keys: Iterable[EncryptedKey],
    index: Optional[WrapIndex] = None,
) -> List[EncryptedKey]:
    """The wraps ``member`` could use, by fixed-point reachability.

    Unlike :meth:`~repro.members.member.Member.absorb` this does **not**
    mutate the member; it says which records matter to this receiver.
    Results come back in message order; pass the payload's shared
    ``index`` when querying many members about one message.
    """
    if index is None:
        index = WrapIndex(encrypted_keys)
    return [index.batch[row] for row in index.closure(member.held_versions())]


def audiences_of(interest: Mapping[str, Iterable[int]]) -> Dict[int, Set[str]]:
    """Invert ``receiver -> rows it needs`` into ``row -> receivers``.

    A receiver needing nothing leaves no trace, and a row nobody needs
    has no entry.
    """
    audiences: Dict[int, Set[str]] = {}
    for receiver_id, rows in interest.items():
        for row in rows:
            audiences.setdefault(row, set()).add(receiver_id)
    return audiences


def build_task(
    message: RekeyMessage,
    held_versions: Dict[str, Dict[str, int]],
) -> TransportTask:
    """A delivery task for a rekey message, each receiver named in the rows
    it can open.

    Parameters
    ----------
    message:
        The rekey broadcast produced by the server.
    held_versions:
        ``receiver_id -> {key_id: version}`` — what each receiver holds
        *before* this message (real receivers equivalently derive their
        own interest from key ids in packet headers).

    Interest is the fixed-point closure: a key is interesting if its wrap
    can be opened with a held key or with another interesting key from the
    same message (rekey messages chain fresh parents onto fresh children).
    Computed through the message's shared positional index, so the work per
    receiver is O(its tree depth) rather than O(message size).
    """
    index = message.index()
    return TransportTask(
        keys=message.encrypted_keys,
        audiences=audiences_of(
            {rid: index.closure(versions) for rid, versions in held_versions.items()}
        ),
    )


class EveryReceiverSimulation(GroupRekeyingSimulation):
    """The simulator with every receiver tracked (none in a cost-only run).

    Each joiner gets a :class:`~repro.members.member.Member` whatever the
    size of the group, so every in-sync receiver absorbs each payload,
    ``verify`` count-checks and holds each one to the group key, and the
    departed sample keeps the most recent departures of all.  Its
    records, transport outcomes and latency records are the sampled
    simulator's, receiver for receiver.
    """

    def _tracks_joiner(self) -> bool:
        return not self.config.cost_only
