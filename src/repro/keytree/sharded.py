"""A key tree sharded into independent LKH subtrees.

:class:`ShardedKeyTree` splits the membership across ``shards``
independent :class:`~repro.keytree.flat.FlatKeyTree` subtrees, so a batch of
J joins / L departures decomposes into per-shard mark/generate/wrap jobs
that can run on any :mod:`repro.perf.parallel` backend, plus an O(shards)
group-key stitch the owning server performs over the shard roots (the
same "sub-trees under the root key" composition the paper uses for its
two-partition and loss-homogenized schemes).

Determinism contract
--------------------
The number of shards is a *protocol parameter*, like the tree degree: it
fixes which subtree each member lives in (``sha256(member_id) % shards``
— never Python's salted ``hash``) and therefore the logical structure and
cost of every batch.  The executor backend and worker-lane count are pure
*execution* parameters: each shard draws keys from a private stream
derived from the server generator and the shard id, so the payload for a
given operation sequence is byte-identical whether shards run serially,
on threads, or across worker processes, and whatever the lane count.
That is why the backend matrix in ``tests/test_server_sharded.py`` can
demand equal payloads across backends and worker counts — only
wall-clock may differ.

With ``shards=1`` the sharded tree degenerates to exactly the unsharded
one-keytree structure (no stitch, identical per-batch costs), which the
shard-determinism tests pin against :class:`~repro.server.onetree.OneTreeServer`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto.material import KeyGenerator, KeyMaterial
from repro.perf.parallel import (
    BACKENDS,
    PAYLOAD_FULL,
    ShardBatch,
    ShardFragment,
    ShardSpec,
    make_executor,
)


def shard_of(member_id: str, shards: int) -> int:
    """Stable member-to-shard placement: ``sha256(member_id) % shards``.

    Independent of ``PYTHONHASHSEED``, process, platform and insertion
    order — the placement is part of the protocol state.
    """
    digest = hashlib.sha256(member_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shards


@dataclass
class ShardedBatchOutcome:
    """The merged result of one sharded batch rekeying."""

    fragments: List[ShardFragment] = field(default_factory=list)
    #: Shards the batch touched, ascending.
    touched: List[int] = field(default_factory=list)


class ShardedKeyTree:
    """``shards`` independent LKH subtrees behind one membership map.

    Parameters
    ----------
    shards:
        Number of independent subtrees (protocol parameter; see the
        module docstring).
    degree:
        Degree of every shard subtree.
    keygen:
        The server's generator; each shard's private stream is derived
        from it (:meth:`~repro.crypto.material.KeyGenerator.derive_stream`)
        so shard key sequences depend only on the seed and the shard id.
    backend / workers:
        Execution backend (``serial``/``thread``/``process``) and worker
        lanes for per-shard jobs.  Execution-only: no effect on payloads.
    payload:
        ``"full"`` — fragments carry real (possibly lazy) encrypted keys;
        ``"handles"`` — cost-only fragments of
        :class:`~repro.crypto.wrap.PlannedEncryptedKey` records, the
        cheap-IPC mode for cost-only benchmarks.
    """

    def __init__(
        self,
        shards: int = 16,
        degree: int = 4,
        keygen: Optional[KeyGenerator] = None,
        name: str = "group",
        backend: str = "serial",
        workers: int = 1,
        payload: str = PAYLOAD_FULL,
    ) -> None:
        if shards < 1:
            raise ValueError("shard count must be at least 1")
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        self.shards = shards
        self.degree = degree
        self.name = name
        self.backend = backend
        self.workers = max(1, int(workers))
        self.payload = payload
        keygen = keygen if keygen is not None else KeyGenerator()
        specs = [
            ShardSpec(
                shard=shard,
                name=f"{name}/shard{shard}",
                degree=degree,
                stream=keygen.derive_stream(f"shard{shard}").state(),
            )
            for shard in range(shards)
        ]
        self.executor = make_executor(backend, specs, lanes=self.workers)
        self._assignment: Dict[str, int] = {}
        self._sizes: Dict[int, int] = {shard: 0 for shard in range(shards)}
        self._roots: Optional[Dict[int, KeyMaterial]] = None

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._assignment)

    def __contains__(self, member_id: str) -> bool:
        return member_id in self._assignment

    def members(self) -> List[str]:
        return list(self._assignment)

    def shard_holding(self, member_id: str) -> int:
        """The shard ``member_id`` currently lives in."""
        try:
            return self._assignment[member_id]
        except KeyError:
            raise KeyError(
                f"member {member_id!r} is not in sharded tree {self.name!r}"
            ) from None

    def shard_sizes(self) -> Dict[int, int]:
        """Members per shard (zeros included)."""
        return dict(self._sizes)

    def populated_shards(self) -> List[int]:
        return [shard for shard, size in sorted(self._sizes.items()) if size > 0]

    # ------------------------------------------------------------------
    # batch processing
    # ------------------------------------------------------------------

    def apply_batch(
        self,
        joins: Sequence[Tuple[str, KeyMaterial]] = (),
        departures: Sequence[str] = (),
        join_refresh: str = "random",
    ) -> ShardedBatchOutcome:
        """Decompose the batch into per-shard jobs and run them.

        Fragments come back in ascending shard order regardless of which
        lane finished first, keeping the merged payload deterministic.
        """
        per_shard_joins: Dict[int, List[Tuple[str, KeyMaterial]]] = {}
        per_shard_leaves: Dict[int, List[str]] = {}
        for member_id, key in joins:
            shard = shard_of(member_id, self.shards)
            self._assignment[member_id] = shard
            self._sizes[shard] += 1
            per_shard_joins.setdefault(shard, []).append((member_id, key))
        for member_id in departures:
            shard = self._assignment.pop(member_id)
            self._sizes[shard] -= 1
            per_shard_leaves.setdefault(shard, []).append(member_id)

        touched = sorted(set(per_shard_joins) | set(per_shard_leaves))
        batches = [
            ShardBatch(
                shard=shard,
                joins=tuple(per_shard_joins.get(shard, ())),
                departures=tuple(per_shard_leaves.get(shard, ())),
                join_refresh=join_refresh,
            )
            for shard in touched
        ]
        fragments = self.executor.run_batch(batches, payload=self.payload)
        roots = self._root_cache()
        for fragment in fragments:
            roots[fragment.shard] = fragment.root_key
            self._sizes[fragment.shard] = fragment.size
        return ShardedBatchOutcome(fragments=fragments, touched=touched)

    # ------------------------------------------------------------------
    # key queries
    # ------------------------------------------------------------------

    def _root_cache(self) -> Dict[int, KeyMaterial]:
        if self._roots is None:
            self._roots = self.executor.root_keys()
        return self._roots

    def root_key(self, shard: int) -> KeyMaterial:
        """The current root (sub-group) key of ``shard``."""
        return self._root_cache()[shard]

    def member_path_keys(self, member_id: str) -> List[KeyMaterial]:
        """Keys ``member_id`` holds inside its shard (leaf excluded,
        shard root included) — the resync payload minus the group DEK."""
        shard = self.shard_holding(member_id)
        return self.executor.member_paths({shard: [member_id]})[member_id]

    def local_trees(self):
        """(shard -> key tree) for structural checks.

        Live trees for in-process backends; parent-side reconstructions
        from worker dumps for the process backend.
        """
        return self.executor.local_trees()

    # ------------------------------------------------------------------
    # persistence / lifecycle
    # ------------------------------------------------------------------

    def dump_shards(self) -> Dict[int, dict]:
        """Per-shard dumps (tree + attachment heaps + stream state)."""
        return self.executor.dump_shards()

    def load_shards(self, dumps: Dict[int, dict]) -> None:
        """Restore shard state from :meth:`dump_shards` output."""
        self.executor.load_shards({int(k): v for k, v in dumps.items()})
        self._roots = None
        self._sizes = {shard: 0 for shard in range(self.shards)}
        self._assignment = {}
        for shard, data in dumps.items():
            shard = int(shard)
            for entry in _iter_member_ids(data["tree"]["root"]):
                self._assignment[entry] = shard
                self._sizes[shard] += 1

    def close(self) -> None:
        """Shut down the executor (kills process-backend workers)."""
        self.executor.close()


def _iter_member_ids(node_data: dict):
    """Member ids in a serialized tree dump (depth-first)."""
    if "member" in node_data and node_data["member"] is not None:
        yield node_data["member"]
    for child in node_data.get("children", ()):
        yield from _iter_member_ids(child)
