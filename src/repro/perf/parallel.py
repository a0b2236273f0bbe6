"""Pluggable execution backends for shard-parallel rekeying and sweeps.

Two facilities live here:

* **Shard executors** — :class:`SerialShardExecutor`,
  :class:`ThreadShardExecutor` and :class:`ProcessShardExecutor` own the
  per-shard LKH subtrees of a :class:`~repro.keytree.sharded.ShardedKeyTree`
  and run per-shard batch jobs.  All three produce byte-identical payload
  fragments for the same operation sequence, because each shard draws its
  keys from a private deterministic stream
  (:meth:`~repro.crypto.material.KeyGenerator.derive_stream`) that depends
  only on the server seed and the shard id — never on which lane or
  process executed the job.

  The process backend forks ``lanes`` persistent daemon workers, each
  owning the trees of the shards assigned to it (``shard % lanes``), so
  tree state never crosses the pipe — only picklable
  :class:`ShardBatch` specs go down and :class:`ShardFragment` payloads
  come back.  In ``"handles"`` payload mode the fragments carry
  :class:`~repro.crypto.wrap.PlannedEncryptedKey` records (identity
  fields only), keeping cost-only IPC to a few dozen bytes per wrap.

* :func:`parallel_map` — process-pool fan-out for the experiment sweeps
  (``--workers N`` on figures/headlines/validate).  Falls back to a plain
  loop for ``workers <= 1``; callables must be module-level picklables.

When do process pools win?  Each wrap is cheap (one dict update deferred,
one HMAC eager), so the pipe cost must amortize against per-shard tree
work.  Cost-only batches win once shards carry ~10k+ members each (the
marking walk dominates); full-crypto batches win much earlier because the
HMAC work parallelizes.  On a single-core host the process backend only
adds overhead — callers should consult ``os.cpu_count()`` before choosing
it.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.crypto.material import KeyGenerator, KeyMaterial
from repro.crypto.wrap import (
    EncryptedKey,
    PlannedEncryptedKey,
    set_wrap_mode,
    wrap_mode,
)
from repro.keytree.flat import FlatKeyTree, FlatRekeyer
from repro.obs import metrics as obs_metrics

BACKENDS = ("serial", "thread", "process")

PAYLOAD_FULL = "full"
PAYLOAD_HANDLES = "handles"
_PAYLOAD_MODES = (PAYLOAD_FULL, PAYLOAD_HANDLES)


# ----------------------------------------------------------------------
# experiment fan-out
# ----------------------------------------------------------------------


def parallel_map(fn: Callable, items: Iterable, workers: int = 0) -> List:
    """``[fn(x) for x in items]``, optionally over a process pool.

    ``workers <= 1`` (or a single item) runs inline.  ``fn`` and every
    item must be picklable (module-level functions / ``functools.partial``
    of them).  Results come back in input order, and because every sweep
    point carries its own explicit seed/parameters, parallel results are
    identical to serial ones.
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    max_workers = min(workers, len(items))
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        chunksize = max(1, len(items) // (max_workers * 4))
        return list(pool.map(fn, items, chunksize=chunksize))


# ----------------------------------------------------------------------
# shard job/fragment specs (everything picklable)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardSpec:
    """Construction-time description of one shard subtree."""

    shard: int
    name: str
    degree: int
    #: :meth:`KeyGenerator.state` of the shard's private key stream.
    stream: dict


@dataclass(frozen=True)
class ShardBatch:
    """One shard's slice of a batch rekeying (what crosses the pipe)."""

    shard: int
    joins: Tuple[Tuple[str, KeyMaterial], ...]
    departures: Tuple[str, ...]
    join_refresh: str = "random"


@dataclass
class ShardFragment:
    """One shard's slice of the batch payload (what comes back)."""

    shard: int
    encrypted_keys: List[EncryptedKey] = field(default_factory=list)
    advanced: List[tuple] = field(default_factory=list)
    root_key: Optional[KeyMaterial] = None
    size: int = 0
    #: Wall-clock seconds the shard job took in whichever lane ran it
    #: (feeds the per-shard spans and imbalance report).
    wall_s: float = 0.0


class _ShardState:
    """A shard's live structures: tree + rekeyer on a private stream."""

    def __init__(self, spec: ShardSpec) -> None:
        self.shard = spec.shard
        self.keygen = KeyGenerator.from_state(spec.stream)
        self.tree = FlatKeyTree(
            degree=spec.degree, keygen=self.keygen, name=spec.name
        )
        self.rekeyer = FlatRekeyer(self.tree)

    def apply(self, batch: ShardBatch, payload: str) -> ShardFragment:
        start = time.perf_counter()
        message = self.rekeyer.rekey_batch(
            joins=batch.joins,
            departures=batch.departures,
            join_refresh=batch.join_refresh,
        )
        keys = message.encrypted_keys
        if payload == PAYLOAD_HANDLES:
            keys = [PlannedEncryptedKey.from_key(ek) for ek in keys]
        return ShardFragment(
            shard=self.shard,
            encrypted_keys=keys,
            advanced=list(message.advanced),
            root_key=self.tree.root.key,
            size=self.tree.size,
            wall_s=time.perf_counter() - start,
        )

    def dump(self) -> dict:
        """The tree (attachment heaps included) *together with* its
        private stream's state and the rekeyer's message epoch: a restored
        shard must draw the key material the live one would have."""
        return {
            "tree": self.tree.to_dict(),
            "stream": self.keygen.state(),
            "epoch": self.rekeyer._next_epoch,
        }

    def load(self, data: dict) -> None:
        self.keygen = KeyGenerator.from_state(data["stream"])
        self.tree = FlatKeyTree.from_dict(data["tree"], keygen=self.keygen)
        # Pin the counter last: tree construction consumed a draw that
        # must not count.
        self.keygen._counter = int(data["stream"]["counter"])
        self.rekeyer = FlatRekeyer(self.tree)
        self.rekeyer._next_epoch = int(data.get("epoch", 1))


# ----------------------------------------------------------------------
# executors
# ----------------------------------------------------------------------


class SerialShardExecutor:
    """Runs every shard job inline — the reference backend."""

    kind = "serial"

    def __init__(self, specs: Sequence[ShardSpec], lanes: int = 1) -> None:
        self._states = {spec.shard: _ShardState(spec) for spec in specs}
        self.lanes = 1

    # -- batch processing ------------------------------------------------

    def run_batch(
        self, batches: Sequence[ShardBatch], payload: str = PAYLOAD_FULL
    ) -> List[ShardFragment]:
        """Apply the per-shard jobs; fragments come back in shard order."""
        if payload not in _PAYLOAD_MODES:
            raise ValueError(f"payload must be one of {_PAYLOAD_MODES}")
        fragments = [
            self._states[batch.shard].apply(batch, payload)
            for batch in sorted(batches, key=lambda b: b.shard)
        ]
        return fragments

    # -- queries ---------------------------------------------------------

    def member_paths(
        self, queries: Dict[int, List[str]]
    ) -> Dict[str, List[KeyMaterial]]:
        """Path keys (leaf excluded, shard root included) per member."""
        paths: Dict[str, List[KeyMaterial]] = {}
        for shard, member_ids in queries.items():
            tree = self._states[shard].tree
            for member_id in member_ids:
                paths[member_id] = [
                    node.key for node in tree.path_of(member_id)[1:]
                ]
        return paths

    def root_keys(self) -> Dict[int, KeyMaterial]:
        return {
            shard: state.tree.root.key for shard, state in self._states.items()
        }

    def local_trees(self) -> Dict[int, object]:
        """The live shard trees (for structural checks / validation)."""
        return {shard: state.tree for shard, state in self._states.items()}

    # -- persistence -----------------------------------------------------

    def dump_shards(self) -> Dict[int, dict]:
        return {shard: state.dump() for shard, state in self._states.items()}

    def load_shards(self, dumps: Dict[int, dict]) -> None:
        for shard, data in dumps.items():
            self._states[shard].load(data)

    def close(self) -> None:
        """Release executor resources (no-op for the serial backend)."""


class ThreadShardExecutor(SerialShardExecutor):
    """Runs shard jobs on a thread pool.

    Shards never share state, so jobs are trivially thread-safe; under
    CPython's GIL this backend mostly demonstrates backend-invariance
    (and overlaps what little I/O there is), while the process backend
    is the one that buys real parallelism.
    """

    kind = "thread"

    def __init__(self, specs: Sequence[ShardSpec], lanes: int = 2) -> None:
        super().__init__(specs)
        self.lanes = max(1, int(lanes))
        self._pool: Optional[ThreadPoolExecutor] = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.lanes)
        return self._pool

    def run_batch(
        self, batches: Sequence[ShardBatch], payload: str = PAYLOAD_FULL
    ) -> List[ShardFragment]:
        if payload not in _PAYLOAD_MODES:
            raise ValueError(f"payload must be one of {_PAYLOAD_MODES}")
        ordered = sorted(batches, key=lambda b: b.shard)
        if len(ordered) <= 1:
            return [
                self._states[batch.shard].apply(batch, payload)
                for batch in ordered
            ]
        pool = self._ensure_pool()
        futures = [
            pool.submit(self._states[batch.shard].apply, batch, payload)
            for batch in ordered
        ]
        return [future.result() for future in futures]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


def _worker_main(conn, specs: Sequence[ShardSpec]) -> None:
    """Body of one persistent shard worker process."""
    states = {spec.shard: _ShardState(spec) for spec in specs}
    while True:
        try:
            op, args = conn.recv()
        except EOFError:
            break
        try:
            if op == "stop":
                conn.send(("ok", None))
                break
            if op == "batch":
                batches, payload, mode, collect = args
                set_wrap_mode(mode)
                if collect:
                    # Metrics-delta shipping: run the jobs under a scratch
                    # registry so worker-side probes (crypto.wraps, …) are
                    # captured, and send the snapshot home with the
                    # fragments for the parent to merge.
                    with obs_metrics.collecting() as registry:
                        fragments = [
                            states[b.shard].apply(b, payload) for b in batches
                        ]
                    out = (fragments, registry.snapshot())
                else:
                    out = (
                        [states[b.shard].apply(b, payload) for b in batches],
                        None,
                    )
            elif op == "paths":
                out = {}
                for shard, member_ids in args.items():
                    tree = states[shard].tree
                    for member_id in member_ids:
                        out[member_id] = [
                            node.key for node in tree.path_of(member_id)[1:]
                        ]
            elif op == "roots":
                out = {shard: s.tree.root.key for shard, s in states.items()}
            elif op == "dump":
                out = {shard: s.dump() for shard, s in states.items()}
            elif op == "load":
                for shard, data in args.items():
                    states[shard].load(data)
                out = None
            else:
                raise ValueError(f"unknown shard-worker op {op!r}")
            conn.send(("ok", out))
        except Exception as exc:  # pragma: no cover - defensive relay
            conn.send(("error", f"{type(exc).__name__}: {exc}"))


class ProcessShardExecutor:
    """Persistent worker processes, shards assigned round-robin to lanes.

    Workers are forked lazily on first use and keep their shard trees
    across batches, so per-batch IPC is just the job specs down and the
    payload fragments back.  Workers are daemons: an unclosed executor
    cannot outlive the parent, but call :meth:`close` promptly anyway.
    """

    kind = "process"

    def __init__(self, specs: Sequence[ShardSpec], lanes: int = 2) -> None:
        self.lanes = max(1, min(int(lanes), len(specs)))
        self._specs = list(specs)
        self._lane_of = {spec.shard: spec.shard % self.lanes for spec in specs}
        self._conns: List = []
        self._procs: List = []
        self._pending_load: Optional[Dict[int, dict]] = None

    def _ensure_started(self) -> None:
        if self._procs:
            return
        ctx = multiprocessing.get_context()
        for lane in range(self.lanes):
            lane_specs = [
                spec for spec in self._specs if self._lane_of[spec.shard] == lane
            ]
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, lane_specs),
                daemon=True,
                name=f"shard-lane-{lane}",
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)
        if self._pending_load is not None:
            self._broadcast("load", self._split_by_lane(self._pending_load))
            self._pending_load = None

    def _split_by_lane(self, by_shard: Dict[int, object]) -> List[Dict]:
        split: List[Dict] = [dict() for _ in range(self.lanes)]
        for shard, value in by_shard.items():
            split[self._lane_of[shard]][shard] = value
        return split

    def _broadcast(self, op: str, per_lane_args: Sequence) -> List:
        """Send one op to every involved lane, then collect the replies.

        All sends complete before the first receive, so lanes execute
        concurrently; ``None`` args skip a lane.
        """
        self._ensure_started()
        involved = []
        for lane, args in enumerate(per_lane_args):
            if args is None:
                continue
            self._conns[lane].send((op, args))
            involved.append(lane)
        replies = []
        for lane in involved:
            status, out = self._conns[lane].recv()
            if status != "ok":
                raise RuntimeError(f"shard worker lane {lane} failed: {out}")
            replies.append(out)
        return replies

    # -- batch processing ------------------------------------------------

    def run_batch(
        self, batches: Sequence[ShardBatch], payload: str = PAYLOAD_FULL
    ) -> List[ShardFragment]:
        if payload not in _PAYLOAD_MODES:
            raise ValueError(f"payload must be one of {_PAYLOAD_MODES}")
        per_lane: List[Optional[list]] = [None] * self.lanes
        for batch in sorted(batches, key=lambda b: b.shard):
            lane = self._lane_of[batch.shard]
            if per_lane[lane] is None:
                per_lane[lane] = []
            per_lane[lane].append(batch)
        mode = wrap_mode()
        registry = obs_metrics.active_registry()
        collect = registry is not None
        args = [
            None if jobs is None else (jobs, payload, mode, collect)
            for jobs in per_lane
        ]
        fragments: List[ShardFragment] = []
        for lane_fragments, snapshot in self._broadcast("batch", args):
            fragments.extend(lane_fragments)
            if snapshot is not None and registry is not None:
                registry.merge(snapshot)
        fragments.sort(key=lambda f: f.shard)
        return fragments

    # -- queries ---------------------------------------------------------

    def member_paths(
        self, queries: Dict[int, List[str]]
    ) -> Dict[str, List[KeyMaterial]]:
        paths: Dict[str, List[KeyMaterial]] = {}
        per_lane = self._split_by_lane(queries)
        args = [lane_q if lane_q else None for lane_q in per_lane]
        for reply in self._broadcast("paths", args):
            paths.update(reply)
        return paths

    def root_keys(self) -> Dict[int, KeyMaterial]:
        roots: Dict[int, KeyMaterial] = {}
        for reply in self._broadcast("roots", [()] * self.lanes):
            roots.update(reply)
        return roots

    def local_trees(self) -> Dict[int, object]:
        """Parent-side reconstructions of the worker trees (test paths)."""
        return {
            shard: FlatKeyTree.from_dict(data["tree"])
            for shard, data in self.dump_shards().items()
        }

    # -- persistence -----------------------------------------------------

    def dump_shards(self) -> Dict[int, dict]:
        dumps: Dict[int, dict] = {}
        for reply in self._broadcast("dump", [()] * self.lanes):
            dumps.update(reply)
        return dumps

    def load_shards(self, dumps: Dict[int, dict]) -> None:
        if not self._procs:
            # Defer until the lazy fork so restores don't pay a start-up.
            self._pending_load = dict(dumps)
            return
        self._broadcast("load", self._split_by_lane(dumps))

    def close(self) -> None:
        if not self._procs:
            return
        for conn in self._conns:
            try:
                conn.send(("stop", None))
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
        for conn, proc in zip(self._conns, self._procs):
            try:
                conn.recv()
            except (EOFError, OSError):  # pragma: no cover
                pass
            conn.close()
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
        self._conns = []
        self._procs = []


_EXECUTORS = {
    "serial": SerialShardExecutor,
    "thread": ThreadShardExecutor,
    "process": ProcessShardExecutor,
}


def make_executor(backend: str, specs: Sequence[ShardSpec], lanes: int = 1):
    """Build the executor for ``backend`` over ``specs`` with ``lanes``."""
    try:
        cls = _EXECUTORS[backend]
    except KeyError:
        raise ValueError(
            f"backend must be one of {BACKENDS}, got {backend!r}"
        ) from None
    return cls(specs, lanes=lanes)


def available_cpus() -> int:
    """Best-effort *usable* CPU count (1 when undetectable).

    Prefers the scheduler affinity mask over ``os.cpu_count()`` so
    container CPU limits are respected — CI speed-up guards key off this.
    """
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1
