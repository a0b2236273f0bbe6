"""Bulk crypto engine: array-at-a-time key derivation and wrapping.

The per-key cost of a batch rekeying has three Python-object components
the paper's cost metric never sees but a million-member server pays for
on every batch: one ``hashlib`` round-trip per fresh secret, one
``hmac.new`` dispatch per wrap, and one :class:`EncryptedKey`-flavored
object per payload entry.  This module replaces all three with
operations over contiguous buffers:

* :func:`derive_secret_list` / :func:`derive_secrets` — all fresh
  secrets for a batch in one pass over a packed counter buffer,
  byte-identical to ``n`` successive
  :meth:`repro.crypto.material.KeyGenerator.fresh_secret` draws.
* :func:`encrypt_wrap_rows` — the batched-HMAC wrap engine: the epoch's
  (wrapping, payload) pairs grouped by wrapping key, keystreams from a
  per-group HMAC template (key padding absorbed once, ``.copy()`` per
  message), one vectorized XOR over the packed ``(n, 32)`` plaintext and
  keystream matrices (numpy when available, a single big-int XOR
  otherwise), ciphertext-plus-tag rows emitted into one preallocated
  ``n * 48`` output buffer.
* :class:`PackedWraps` — a columnar, pickle-cheap stand-in for a list of
  :class:`~repro.crypto.wrap.EncryptedKey` records: identity columns
  plus either the ciphertext buffer (eager), the secret columns
  (deferred — the whole pack encrypts in one batched pass on first
  ciphertext access), or nothing at all (cost-only handles).  Shard
  fragments carry the pack itself, so process-pool IPC ships one bytes
  blob per shard instead of thousands of per-key objects.

GIL-parallel execution
----------------------
``hashlib``/``hmac`` digest updates release the GIL, so the wrap
planner's per-wrapping-key groups parallelize across real cores.  With
``threads > 1`` (parameter, or ``REPRO_BULK_THREADS``; default auto)
:func:`encrypt_wrap_rows` partitions the groups into row-balanced chunks
and runs them on a process-wide reusable :class:`ThreadPoolExecutor`;
every worker writes its rows into disjoint slices of the single
preallocated ciphertext buffer, so there is no merge copy.  Small plans
(fewer than :data:`MIN_ROWS_PER_THREAD` rows per worker) stay serial —
dispatch overhead would beat the crypto.  Threading is an execution
parameter like the shard backend: payload bytes are identical for every
thread count, enforced by the differential battery and golden fixtures.

Byte-identity contract
----------------------
Every ciphertext produced here equals :func:`repro.crypto.cipher.encrypt`
over the same ``(key, nonce, plaintext)`` bit for bit — same pre-keyed
HMAC states (:func:`repro.crypto.cipher.key_states`, the one HMAC kernel),
same HMAC-counter keystream, same truncated tag.
``tests/test_crypto_bulk.py`` pins this per primitive, and the flat-kernel
differential battery pins it end to end (``bulk=True`` payloads must match
the object kernel's golden bytes).
"""

from __future__ import annotations

import hashlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.crypto.cipher import hmac_digest, key_states
from repro.crypto.material import KEY_SIZE
from repro.crypto.wrap import EncryptedKey, PlannedEncryptedKey
from repro.obs import metrics as obs_metrics

try:  # numpy is a declared dependency, but the engine degrades without it
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via _xor_blocks fallback
    _np = None

WRAP_SIZE = EncryptedKey.SIZE_BYTES
_TAG_SIZE = WRAP_SIZE - KEY_SIZE
_ZERO8 = (0).to_bytes(8, "big")  # keystream block counter (one block per key)

BULK_ENV = "REPRO_BULK_CRYPTO"
"""Environment switch: a truthy value turns the bulk fast path on for
every rekeyer constructed with ``bulk=None`` (the default), which is how
the CI ``bulk-differential`` job forces the whole battery through it."""


def bulk_enabled(flag: Optional[bool] = None) -> bool:
    """Resolve a rekeyer's ``bulk`` argument against :data:`BULK_ENV`.

    Explicit ``True``/``False`` win; ``None`` defers to the environment.
    """
    if flag is not None:
        return bool(flag)
    return os.environ.get(BULK_ENV, "").strip().lower() in (
        "1", "true", "yes", "on",
    )


THREADS_ENV = "REPRO_BULK_THREADS"
"""Environment knob for the wrap engine's worker-thread count.  An
integer forces that many threads for every rekeyer constructed with
``threads=None``; ``auto`` (or unset) picks
``min(usable cpus, AUTO_THREAD_CAP)``.  Execution-only: payload bytes
never depend on it."""

AUTO_THREAD_CAP = 4
"""Ceiling for the ``auto`` thread count.  HMAC batching stops scaling
well past a few cores (the per-row Python bookkeeping between digest
calls serializes), so auto-resolution never grabs a whole big box."""

MIN_ROWS_PER_THREAD = 256
"""Minimum wrap rows per worker before an extra thread pays for itself.
Below this, pool dispatch and chunk bookkeeping cost more than the ~2
HMAC digests per row they would parallelize, so small plans run serial
regardless of the configured thread count."""


def _usable_cpus() -> int:
    """Affinity-aware usable CPU count (duplicated from
    :func:`repro.perf.parallel.available_cpus` — importing it here would
    cycle, since that module imports :class:`PackedWraps`)."""
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1


def resolve_threads(threads: Optional[int] = None) -> int:
    """Resolve a ``threads`` argument against :data:`THREADS_ENV`.

    An explicit positive integer wins; ``None`` (or ``"auto"``) defers to
    the environment, and an unset/``auto`` environment picks
    ``min(usable cpus, AUTO_THREAD_CAP)``.  The result is always >= 1.
    """
    if threads is None or threads == "auto":
        env = os.environ.get(THREADS_ENV, "").strip().lower()
        if env in ("", "auto"):
            return max(1, min(_usable_cpus(), AUTO_THREAD_CAP))
        try:
            threads = int(env)
        except ValueError:
            raise ValueError(
                f"{THREADS_ENV} must be an integer or 'auto', got {env!r}"
            ) from None
    return max(1, int(threads))


def thread_oversubscription_warning(
    threads: Optional[int] = None,
) -> Optional[str]:
    """A human-readable warning when the wrap engine is oversubscribed.

    Returns ``None`` unless the resolved thread count exceeds the host's
    CPU count — auto-resolution can never trigger it, only an explicit
    ``threads=`` or ``REPRO_BULK_THREADS`` setting can.  ``repro bench``
    surfaces this in its report's ``warnings[]`` instead of silently
    timesharing HMAC workers on too few cores.
    """
    resolved = resolve_threads(threads)
    cpus = os.cpu_count() or 1
    if resolved <= cpus:
        return None
    return (
        f"wrap engine configured for {resolved} threads but the host has "
        f"{cpus} CPU(s); HMAC workers will timeshare "
        f"(set {THREADS_ENV}<={cpus} or pass threads={cpus})"
    )


_pool_lock = threading.Lock()
_pool: Optional[ThreadPoolExecutor] = None
_pool_size = 0


def _shared_pool(threads: int) -> ThreadPoolExecutor:
    """The process-wide reusable wrap-worker pool (grow-only).

    One persistent pool serves every rekeyer in the process, so a server
    doing thousands of batches never pays thread start-up per batch; a
    request for more workers than the pool has grows it in place.
    """
    global _pool, _pool_size
    with _pool_lock:
        if _pool is None or _pool_size < threads:
            old = _pool
            _pool = ThreadPoolExecutor(
                max_workers=threads, thread_name_prefix="bulk-wrap"
            )
            _pool_size = threads
            if old is not None:
                old.shutdown(wait=False)
        return _pool


# ----------------------------------------------------------------------
# vectorized key derivation
# ----------------------------------------------------------------------


def derive_secret_list(root: bytes, counter: int, n: int) -> List[bytes]:
    """The next ``n`` fresh secrets of a generator at ``counter``.

    Equals ``[KeyGenerator.fresh_secret() for _ in range(n)]`` byte for
    byte for a generator whose ``_root`` is ``root`` and whose
    ``_counter`` is ``counter`` — the caller must advance its counter by
    ``n`` afterwards.  One tight C-dispatch loop: per key, a single
    SHA-256 over the 40-byte ``root || counter`` block.
    """
    sha256 = hashlib.sha256
    to_bytes = int.to_bytes
    return [
        sha256(root + to_bytes(i, 8, "big")).digest()
        for i in range(counter + 1, counter + n + 1)
    ]


def derive_secrets(root: bytes, counter: int, n: int) -> bytes:
    """:func:`derive_secret_list` packed into one contiguous buffer.

    The result is the C-contiguous ``(n, KEY_SIZE)`` byte matrix the
    wrap engine consumes; row ``i`` is draw ``counter + 1 + i``.
    """
    return b"".join(derive_secret_list(root, counter, n))


# ----------------------------------------------------------------------
# batched HMAC wrap engine
# ----------------------------------------------------------------------


def _xor_blocks(plain: bytes, stream: bytes) -> bytes:
    """XOR two equal-length packed buffers in one vectorized operation."""
    if _np is not None:
        return (
            _np.frombuffer(plain, dtype=_np.uint8)
            ^ _np.frombuffer(stream, dtype=_np.uint8)
        ).tobytes()
    little = "little"
    return (
        int.from_bytes(plain, little) ^ int.from_bytes(stream, little)
    ).to_bytes(len(plain), little)


def wrap_nonce(
    wrapping_id: str,
    wrapping_version: int,
    payload_id: str,
    payload_version: int,
) -> bytes:
    """The deterministic wrap nonce (same format as ``wrap._nonce``)."""
    return (
        f"{wrapping_id}#{wrapping_version}->{payload_id}#{payload_version}"
    ).encode("utf-8")


def _wrap_chunk(
    groups: Sequence[Tuple[bytes, List[int]]],
    nonces: Sequence[bytes],
    payload_secrets: Sequence[bytes],
    out: bytearray,
) -> int:
    """Encrypt the rows of ``groups`` into their slices of ``out``.

    One worker's share of a wrap plan: keystream digests per row, one
    vectorized XOR over the chunk's packed rows, then tag digests — the
    exact per-row byte recipe of :func:`repro.crypto.cipher.encrypt`, so
    output bytes are independent of how rows are chunked or grouped.
    Every row index appears in exactly one chunk, so concurrent workers
    write disjoint ``out`` slices and need no synchronization; the HMAC
    digest calls release the GIL, which is where the parallelism comes
    from.  Returns the number of rows written.
    """
    rows_flat: List[int] = []
    for __, rows in groups:
        rows_flat.extend(rows)
    m = len(rows_flat)
    keystream = bytearray(m * KEY_SIZE)
    tag_groups = []
    position = 0
    for secret, rows in groups:
        if type(secret) is not bytes:
            secret = bytes(secret)  # memoryview (arena) -> hashable key
        enc_state, mac_state = key_states(secret)
        for i in rows:
            base = position * KEY_SIZE
            keystream[base : base + KEY_SIZE] = hmac_digest(
                enc_state, nonces[i] + _ZERO8
            )
            position += 1
        tag_groups.append((mac_state, rows))

    plain = b"".join(payload_secrets[i] for i in rows_flat)
    ciphertexts = _xor_blocks(plain, bytes(keystream))

    position = 0
    for mac_state, rows in tag_groups:
        for i in rows:
            base = position * KEY_SIZE
            row = ciphertexts[base : base + KEY_SIZE]
            slot = i * WRAP_SIZE
            out[slot : slot + KEY_SIZE] = row
            out[slot + KEY_SIZE : slot + WRAP_SIZE] = hmac_digest(
                mac_state, nonces[i] + row
            )[:_TAG_SIZE]
            position += 1
    return m


def _balanced_chunks(
    groups: List[Tuple[bytes, List[int]]], parts: int
) -> List[List[Tuple[bytes, List[int]]]]:
    """Partition ``groups`` into ``parts`` row-balanced chunks.

    Greedy largest-first onto the lightest chunk: group boundaries are
    preserved (a group's HMAC template is per-worker state), so balance
    is by total row count, the quantity proportional to HMAC work.
    """
    order = sorted(range(len(groups)), key=lambda g: -len(groups[g][1]))
    loads = [0] * parts
    chunks: List[List[Tuple[bytes, List[int]]]] = [[] for _ in range(parts)]
    for g in order:
        lightest = loads.index(min(loads))
        chunks[lightest].append(groups[g])
        loads[lightest] += len(groups[g][1])
    return [chunk for chunk in chunks if chunk]


def encrypt_wrap_rows(
    wrapping_ids: Sequence[str],
    wrapping_versions: Sequence[int],
    payload_ids: Sequence[str],
    payload_versions: Sequence[int],
    wrapping_secrets: Sequence[bytes],
    payload_secrets: Sequence[bytes],
    threads: Optional[int] = None,
    group_keys: Optional[Sequence[Hashable]] = None,
) -> bytes:
    """Encrypt ``n`` wraps into one ``n * WRAP_SIZE`` buffer.

    Row ``i`` is ``ciphertext || tag`` for wrap ``i`` — byte-identical to
    ``encrypt(wrapping_secrets[i], nonce_i, payload_secrets[i])``.  The
    planner groups rows by wrapping key so each distinct key pays its
    subkey derivation and HMAC key-padding once (the pre-keyed SHA-256
    states are ``.copy()``-ed per row); each chunk's keystream/plaintext
    XOR runs once over its packed rows.  Output row order is input order
    regardless of grouping or chunking, so callers' wire order is
    untouched.

    ``threads`` (default: :func:`resolve_threads` of the environment)
    splits the groups into row-balanced chunks executed on the shared
    worker pool, each writing disjoint slices of the one preallocated
    output buffer.  Plans smaller than :data:`MIN_ROWS_PER_THREAD` per
    worker run serial.

    ``group_keys`` optionally supplies one hashable grouping key per row
    (e.g. an arena slot or the wrapping key id).  Rows sharing a key must
    share a wrapping secret; callers whose secrets are unhashable
    zero-copy ``memoryview``\\ s use this to skip per-row ``bytes``
    conversions.  Grouping never affects output bytes — only which rows
    share an HMAC template.
    """
    n = len(wrapping_ids)
    if n == 0:
        return b""
    nonces = [
        f"{wrapping_ids[i]}#{wrapping_versions[i]}"
        f"->{payload_ids[i]}#{payload_versions[i]}".encode("utf-8")
        for i in range(n)
    ]
    by_key: Dict[Hashable, List[int]] = {}
    if group_keys is None:
        for i, secret in enumerate(wrapping_secrets):
            by_key.setdefault(secret, []).append(i)
        groups = [
            (secret if type(secret) is bytes else bytes(secret), rows)
            for secret, rows in by_key.items()
        ]
    else:
        for i, key in enumerate(group_keys):
            by_key.setdefault(key, []).append(i)
        groups = [
            (wrapping_secrets[rows[0]], rows) for rows in by_key.values()
        ]

    out = bytearray(n * WRAP_SIZE)
    threads = resolve_threads(threads)
    use = min(threads, len(groups), max(1, n // MIN_ROWS_PER_THREAD))
    if use <= 1:
        _wrap_chunk(groups, nonces, payload_secrets, out)
        if obs_metrics.active_registry() is not None:
            obs_metrics.inc("bulk.wrap_rows", n)
            obs_metrics.inc("bulk.wrap_chunks")
            obs_metrics.gauge_set("bulk.wrap_threads", 1)
    else:
        chunks = _balanced_chunks(groups, use)
        pool = _shared_pool(threads)
        futures = [
            pool.submit(_wrap_chunk, chunk, nonces, payload_secrets, out)
            for chunk in chunks
        ]
        sizes = [future.result() for future in futures]
        if obs_metrics.active_registry() is not None:
            obs_metrics.inc("bulk.wrap_rows", n)
            obs_metrics.inc("bulk.wrap_chunks", len(chunks))
            obs_metrics.gauge_set("bulk.wrap_threads", len(chunks))
            for size in sizes:
                obs_metrics.observe("bulk.wrap_chunk_rows", size)
    return bytes(out)


# ----------------------------------------------------------------------
# columnar wrap store
# ----------------------------------------------------------------------


class PackedEncryptedKey(EncryptedKey):
    """An :class:`EncryptedKey` view over one :class:`PackedWraps` row.

    Identity fields are copied out eagerly (cost metrics, indexing and
    interest closure read them constantly); the ciphertext resolves
    through the pack, which batch-encrypts all rows on first access.
    Views pickle as standalone records (eager or planned, never the
    whole pack) so a stray per-key pickle cannot ship the batch.
    """

    def __init__(self, pack: "PackedWraps", row: int) -> None:
        # Bypass the frozen-dataclass __setattr__ wholesale: one dict
        # update is the entire per-view cost.
        self.__dict__.update(
            wrapping_id=pack.wrapping_ids[row],
            wrapping_version=pack.wrapping_versions[row],
            payload_id=pack.payload_ids[row],
            payload_version=pack.payload_versions[row],
            _pack=pack,
            _row=row,
        )

    @property
    def ciphertext(self) -> bytes:  # type: ignore[override]
        return self._pack.ciphertext_at(self._row)

    @property
    def materialized(self) -> bool:
        return self._pack.buffer is not None

    def __reduce__(self):
        if self._pack.handles_only:
            return (
                PlannedEncryptedKey,
                (
                    self.wrapping_id,
                    self.wrapping_version,
                    self.payload_id,
                    self.payload_version,
                ),
            )
        return (
            EncryptedKey,
            (
                self.wrapping_id,
                self.wrapping_version,
                self.payload_id,
                self.payload_version,
                self.ciphertext,
            ),
        )

    # Content-based comparison across every EncryptedKey flavor, exactly
    # like LazyEncryptedKey; handles-mode rows compare identity only, the
    # PlannedEncryptedKey convention.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EncryptedKey):
            return NotImplemented
        if (
            self.wrapping_id != other.wrapping_id
            or self.wrapping_version != other.wrapping_version
            or self.payload_id != other.payload_id
            or self.payload_version != other.payload_version
        ):
            return False
        if self._pack.handles_only or isinstance(other, PlannedEncryptedKey):
            return True
        if isinstance(other, PackedEncryptedKey) and other._pack.handles_only:
            return True
        return self.ciphertext == other.ciphertext

    def __hash__(self) -> int:
        identity = (
            self.wrapping_id,
            self.wrapping_version,
            self.payload_id,
            self.payload_version,
        )
        if self._pack.handles_only:
            return hash(identity)
        return hash(identity + (self.ciphertext,))


class PackedWraps:
    """``n`` wraps as identity columns plus one ciphertext buffer.

    Quacks like the ``List[EncryptedKey]`` every payload consumer
    expects (``len``/iteration/indexing yield :class:`PackedEncryptedKey`
    views) while storing no per-row objects.  Three states:

    * **deferred** — secret columns held, ``buffer`` ``None``; the first
      ciphertext read batch-encrypts every row via
      :func:`encrypt_wrap_rows` and drops the secrets.
    * **eager** — ``buffer`` holds the ``n * WRAP_SIZE`` rows (call
      :meth:`materialize` right after construction).
    * **handles** (:meth:`handles`) — identity columns only; ciphertext
      access raises like :class:`~repro.crypto.wrap.PlannedEncryptedKey`.
      This is what cost-only shard fragments ship over the pipe.

    Instances pickle by column (``__slots__`` state), so a fragment's
    payload crosses a process pipe as a few lists and at most one bytes
    blob — the zero-copy fragment format.

    Arena-backed packs (``arena`` set) may store **int slot handles** in
    the secret columns instead of ``bytes``: :meth:`materialize` resolves
    them to zero-copy ``memoryview``\\ s just in time, and
    :meth:`snapshot_secrets` pins them to ``bytes`` before the arena
    mutates underneath a still-deferred pack (or before pickling —
    memoryviews don't cross pipes).
    """

    __slots__ = (
        "wrapping_ids",
        "wrapping_versions",
        "payload_ids",
        "payload_versions",
        "wrapping_secrets",
        "payload_secrets",
        "buffer",
        "handles_only",
        "threads",
        "group_keys",
        "arena",
        "_views",
        "__weakref__",  # SecretArena.adopt tracks deferred packs weakly
    )

    def __init__(
        self,
        wrapping_ids: List[str],
        wrapping_versions: List[int],
        payload_ids: List[str],
        payload_versions: List[int],
        wrapping_secrets: Optional[List[bytes]] = None,
        payload_secrets: Optional[List[bytes]] = None,
        buffer: Optional[bytes] = None,
        handles_only: bool = False,
        threads: Optional[int] = None,
        group_keys: Optional[List[Hashable]] = None,
        arena=None,
    ) -> None:
        self.wrapping_ids = wrapping_ids
        self.wrapping_versions = wrapping_versions
        self.payload_ids = payload_ids
        self.payload_versions = payload_versions
        self.wrapping_secrets = wrapping_secrets
        self.payload_secrets = payload_secrets
        self.buffer = buffer
        self.handles_only = handles_only
        self.threads = threads
        self.group_keys = group_keys
        self.arena = arena
        self._views: Optional[List[PackedEncryptedKey]] = None

    # -- sequence protocol ----------------------------------------------

    def _view_list(self) -> List["PackedEncryptedKey"]:
        # Views are created once per pack: every payload gets iterated
        # repeatedly (WrapIndex build, codec, receiver absorption), and
        # re-making tens of thousands of view objects per pass would eat
        # the engine's win back.
        views = self._views
        if views is None:
            views = self._views = [
                PackedEncryptedKey(self, row)
                for row in range(len(self.wrapping_ids))
            ]
        return views

    def __len__(self) -> int:
        return len(self.wrapping_ids)

    def __iter__(self):
        return iter(self._view_list())

    def __getitem__(self, item):
        return self._view_list()[item]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PackedWraps):
            if other is self:
                return True
        elif not isinstance(other, (list, tuple)):
            return NotImplemented
        if len(other) != len(self):
            return False
        return all(mine == theirs for mine, theirs in zip(self, other))

    __hash__ = None  # mutable container semantics, like list

    # -- pickling (by column; never the view cache) ----------------------

    def __getstate__(self):
        # Arena slots are process-local offsets and memoryviews can't be
        # pickled: pin everything to plain bytes before shipping.
        self.snapshot_secrets()
        return (
            self.wrapping_ids,
            self.wrapping_versions,
            self.payload_ids,
            self.payload_versions,
            self.wrapping_secrets,
            self.payload_secrets,
            self.buffer,
            self.handles_only,
            self.threads,
        )

    def __setstate__(self, state) -> None:
        (
            self.wrapping_ids,
            self.wrapping_versions,
            self.payload_ids,
            self.payload_versions,
            self.wrapping_secrets,
            self.payload_secrets,
            self.buffer,
            self.handles_only,
            *rest,
        ) = state
        self.threads = rest[0] if rest else None
        self.group_keys = None
        self.arena = None
        self._views = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "handles"
            if self.handles_only
            else "eager" if self.buffer is not None else "deferred"
        )
        return f"<PackedWraps n={len(self)} {state}>"

    # -- ciphertext production ------------------------------------------

    def _resolved(self, column: List) -> List:
        """Resolve int arena slots in ``column`` to zero-copy views."""
        arena = self.arena
        if arena is None:
            return column
        view = arena.view
        return [
            view(item) if type(item) is int else item for item in column
        ]

    def snapshot_secrets(self) -> "PackedWraps":
        """Pin arena-backed secrets to ``bytes``; drop the arena ref.

        Called before the arena mutates under a deferred pack (the
        arena's quiesce discipline) and before pickling.  No-op for
        eager/handles packs and plain-bytes columns.
        """
        if self.arena is not None:
            bytes_at = self.arena.bytes_at
            if self.wrapping_secrets is not None:
                self.wrapping_secrets = [
                    bytes_at(item)
                    if type(item) is int
                    else (item if type(item) is bytes else bytes(item))
                    for item in self.wrapping_secrets
                ]
            if self.payload_secrets is not None:
                self.payload_secrets = [
                    bytes_at(item)
                    if type(item) is int
                    else (item if type(item) is bytes else bytes(item))
                    for item in self.payload_secrets
                ]
            self.arena = None
        return self

    def materialize(self) -> "PackedWraps":
        """Batch-encrypt every row (idempotent); returns ``self``."""
        if self.buffer is None and not self.handles_only:
            self.buffer = encrypt_wrap_rows(
                self.wrapping_ids,
                self.wrapping_versions,
                self.payload_ids,
                self.payload_versions,
                self._resolved(self.wrapping_secrets),
                self._resolved(self.payload_secrets),
                threads=self.threads,
                group_keys=self.group_keys,
            )
            # The secrets' job is done; free them like an eager wrap would.
            self.wrapping_secrets = None
            self.payload_secrets = None
            self.group_keys = None
            self.arena = None
        return self

    def ciphertext_at(self, row: int) -> bytes:
        """``ciphertext || tag`` of row ``row`` (materializes the pack)."""
        if self.handles_only:
            raise RuntimeError(
                "PackedWraps has no ciphertext: the payload was produced "
                "in cost-only (handles) mode and the key material never "
                "left the shard worker"
            )
        buffer = self.buffer
        if buffer is None:
            buffer = self.materialize().buffer
        base = row * WRAP_SIZE
        return buffer[base : base + WRAP_SIZE]

    def handles(self) -> "PackedWraps":
        """A cost-only twin sharing the identity columns (no material)."""
        return PackedWraps(
            self.wrapping_ids,
            self.wrapping_versions,
            self.payload_ids,
            self.payload_versions,
            handles_only=True,
        )
