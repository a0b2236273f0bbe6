"""The sharded key server: parallel per-shard rekeying under one DEK.

:class:`ShardedOneTreeServer` runs the one-keytree scheme over a
:class:`~repro.keytree.sharded.ShardedKeyTree`: membership is hash-split
across ``shards`` independent LKH subtrees, a batch decomposes into
disjoint per-shard jobs executed by a pluggable backend
(:mod:`repro.perf.parallel`), and one O(shards) stitch wraps a fresh
group DEK under the shard roots — the same root-key composition the
paper's Section 3/4 servers use over their partitions.

Cost semantics mirror :class:`~repro.server.losshomog.LossHomogenizedServer`
(fresh DEK every active batch; with departures the DEK is wrapped under
every populated shard root, with joins only under the previous DEK plus
the touched roots), except that ``shards=1`` skips the stitch entirely
and serves the shard root *as* the group key — making the single-shard
server cost- and structure-identical to
:class:`~repro.server.onetree.OneTreeServer`.

Seeding scheme (the backend-invariance contract):

* member individual keys — the server's own generator (parent side);
* shard node keys — one private stream per shard, derived from the
  server generator and the shard id;
* the group DEK — a dedicated parent-side stitch stream.

No stream is ever shared between two execution lanes, so serial, thread
and process backends emit byte-identical payloads for the same batches.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.crypto.material import KeyGenerator, KeyMaterial
from repro.crypto.wrap import (
    EncryptedKey,
    PlannedEncryptedKey,
    WrapIndex,
    wrap_key,
)
from repro.keytree.sharded import ShardedKeyTree, shard_of
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.perf.parallel import PAYLOAD_FULL, PAYLOAD_HANDLES
from repro.server.base import BatchResult, GroupKeyServer, Registration


class ShardedOneTreeServer(GroupKeyServer):
    """Hash-sharded LKH subtrees under one group DEK.

    Parameters
    ----------
    shards:
        Number of independent subtrees — a protocol parameter that fixes
        placement and batch cost (``1`` reproduces the unsharded scheme
        exactly).
    workers / backend:
        Execution lanes and backend for the per-shard jobs — pure
        execution parameters with no effect on the payload bytes.
    payload:
        ``"full"`` (default) or ``"handles"`` (cost-only fragments; see
        :class:`~repro.keytree.sharded.ShardedKeyTree`).
    """

    name = "sharded-keytree"

    def __init__(
        self,
        shards: int = 16,
        workers: int = 1,
        backend: str = "serial",
        degree: int = 4,
        keygen: Optional[KeyGenerator] = None,
        group: str = "group",
        join_refresh: str = "random",
        payload: str = PAYLOAD_FULL,
    ) -> None:
        if join_refresh not in ("random", "owf"):
            raise ValueError("join_refresh must be 'random' or 'owf'")
        super().__init__(keygen=keygen, group=group)
        self.join_refresh = join_refresh
        self.payload = payload
        self.sharded = ShardedKeyTree(
            shards=shards,
            degree=degree,
            keygen=self.keygen,
            name=f"{group}/tree",
            backend=backend,
            workers=workers,
            payload=payload,
        )
        # The stitch stream is parent-side and dedicated, so DEK material
        # never depends on how many draws the shard streams have made.
        self._dek_stream = self.keygen.derive_stream("dek")
        self._dek: Optional[KeyMaterial] = None
        if shards > 1:
            self._dek = self._dek_stream.generate(f"{group}/dek")

    @property
    def shards(self) -> int:
        return self.sharded.shards

    def shard_label(self, member_id: str) -> str:
        """Shard assignment of a member, as a metrics label value.

        The latency tracker uses this so ``rekey.latency`` series carry
        the member's hash-placement shard — stable across backends and
        worker counts, which is what makes the ``--workers N`` merged
        histograms byte-identical to a serial run's.
        """
        return str(shard_of(member_id, self.sharded.shards))

    @property
    def backend(self) -> str:
        return self.sharded.backend

    @property
    def workers(self) -> int:
        return self.sharded.workers

    # ------------------------------------------------------------------
    # batch processing
    # ------------------------------------------------------------------

    def _process_batch(
        self,
        result: BatchResult,
        joins: List[Registration],
        leaves: List[str],
        now: float,
    ) -> None:
        if not joins and not leaves:
            return
        outcome = self.sharded.apply_batch(
            joins=[(r.member_id, r.individual_key) for r in joins],
            departures=leaves,
            join_refresh=self.join_refresh,
        )
        fragment_keys = []
        observing = (
            obs_metrics.active_registry() is not None
            or obs_tracing.active_tracer() is not None
        )
        for fragment in outcome.fragments:
            result.extend(f"shard{fragment.shard}", fragment.encrypted_keys)
            result.advanced.extend(fragment.advanced)
            fragment_keys.append(fragment.encrypted_keys)
            if observing:
                obs_tracing.add_span(
                    "shard",
                    wall_s=fragment.wall_s,
                    shard=fragment.shard,
                    keys=len(fragment.encrypted_keys),
                )
                obs_metrics.observe(
                    "shard.batch_keys",
                    len(fragment.encrypted_keys),
                    shard=str(fragment.shard),
                )
                obs_metrics.observe(
                    "shard.batch_seconds",
                    fragment.wall_s,
                    buckets=obs_metrics.LATENCY_BUCKETS_S,
                    shard=str(fragment.shard),
                )
        if self.shards > 1:
            stitch = self._roll_group_key(
                had_departure=bool(leaves), touched=outcome.touched
            )
            result.extend("group-key", stitch)
            fragment_keys.append(stitch)
        # Merge the per-shard indices instead of re-scanning the payload.
        result._index = WrapIndex.from_fragments(fragment_keys)

    def _roll_group_key(
        self, had_departure: bool, touched: List[int]
    ) -> List[EncryptedKey]:
        """The O(shards) stitch: refresh the DEK above the shard roots."""
        previous = self._dek
        assert previous is not None
        self._dek = self._dek_stream.rekey(previous)
        wraps: List[EncryptedKey] = []
        if had_departure:
            for shard in self.sharded.populated_shards():
                wraps.append(wrap_key(self.sharded.root_key(shard), self._dek))
        else:
            wraps.append(wrap_key(previous, self._dek))
            for shard in touched:
                wraps.append(wrap_key(self.sharded.root_key(shard), self._dek))
        if self.payload == PAYLOAD_HANDLES:
            wraps = [PlannedEncryptedKey.from_key(ek) for ek in wraps]
        return wraps

    # ------------------------------------------------------------------
    # key queries
    # ------------------------------------------------------------------

    def group_key(self) -> KeyMaterial:
        if self.shards == 1:
            return self.sharded.root_key(0)
        assert self._dek is not None
        return self._dek

    def _current_keys_of(self, member_id: str) -> List[KeyMaterial]:
        keys = self.sharded.member_path_keys(member_id)
        if self.shards > 1:
            assert self._dek is not None
            keys = keys + [self._dek]
        return keys

    def shard_sizes(self) -> Dict[int, int]:
        """Members per shard (zeros included)."""
        return self.sharded.shard_sizes()

    def close(self) -> None:
        """Release executor resources (process-backend workers)."""
        self.sharded.close()
