"""Key wrapping: encrypting one key under another.

A rekey message in any LKH-family protocol is a collection of *wrapped keys*:
``{K_new}_{K_child}`` — the new key for a tree node, encrypted under a key
already held by some subset of the members.  :class:`EncryptedKey` is the
unit the transport layer packs into packets and the unit every cost metric
in the paper counts.

Two performance facilities live here because they are properties of the
wrapped-key unit itself:

* **deferred wrapping** — the paper's cost metric is the *count* of
  encrypted keys, so analytic experiments and cost-only simulations never
  look at ciphertext bytes.  Under :func:`deferred_wraps` (or
  :func:`set_wrap_mode`), :func:`wrap_key` returns a
  :class:`LazyEncryptedKey` that captures the key material and computes
  the ciphertext only on first access, skipping all HMAC work for runs
  that never deliver to real members.
* **:class:`WrapIndex`** — a ``wrapping_id -> [(position, key)]`` index over
  a rekey payload.  Receivers hold O(tree depth) keys, so indexed lookup
  makes per-receiver delivery work O(depth) instead of a linear scan over
  the whole message (the sparseness property of Section 2.2, realized).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.crypto.cipher import decrypt, encrypt
from repro.crypto.material import KEY_SIZE, KeyMaterial
from repro.perf.instrumentation import count as perf_count


def _nonce(wrapping: KeyMaterial, payload_id: str, payload_version: int) -> bytes:
    """Deterministic unique nonce for a (wrapping key, payload key) pair."""
    text = f"{wrapping.key_id}#{wrapping.version}->{payload_id}#{payload_version}"
    return text.encode("utf-8")


@dataclass(frozen=True)
class EncryptedKey:
    """A key encrypted under another key: ``{payload}_{wrapping}``.

    Attributes
    ----------
    wrapping_id / wrapping_version:
        Identity of the key the payload is encrypted under.  A member holds
        the payload iff it holds this exact (id, version).
    payload_id / payload_version:
        Identity of the key being distributed.
    ciphertext:
        Authenticated ciphertext of the payload secret.
    """

    wrapping_id: str
    wrapping_version: int
    payload_id: str
    payload_version: int
    ciphertext: bytes = field(repr=False)

    SIZE_BYTES = KEY_SIZE + 16
    """Wire size of one encrypted key: secret plus authentication tag.

    Packet-capacity computations in :mod:`repro.transport` use this; the
    paper's cost metric is simply the *count* of these units.
    """

    @property
    def wrapping_handle(self) -> tuple:
        return (self.wrapping_id, self.wrapping_version)

    @property
    def payload_handle(self) -> tuple:
        return (self.payload_id, self.payload_version)


class LazyEncryptedKey(EncryptedKey):
    """An :class:`EncryptedKey` whose ciphertext materializes on demand.

    Produced by :func:`wrap_key` in deferred mode.  Identity fields
    (wrapping/payload handles) — what cost metrics, indexing, and packet
    planning consume — read straight from the two captured keys, while
    the HMAC work of actual encryption happens only if something reads
    ``ciphertext`` (a member unwrap, the wire codec, equality against an
    eager key).

    Holding the key material inside the object is fine in this codebase:
    wraps are produced by the simulated key server, which holds every key
    anyway; nothing here crosses a trust boundary.
    """

    # One GC-tracked object per wrap: three slots, and the instance dict
    # the non-slotted base allows is never created.
    __slots__ = ("_wrapping", "_payload", "_ciphertext")

    def __init__(self, wrapping: KeyMaterial, payload: KeyMaterial) -> None:
        # Wrap creation is the per-encrypted-key cost of every cost-only
        # batch: three stores through the slot descriptors, past the
        # frozen-dataclass __setattr__.
        _set_wrapping(self, wrapping)
        _set_payload(self, payload)
        _set_ciphertext(self, None)

    @property
    def wrapping_id(self) -> str:  # type: ignore[override]
        return self._wrapping.key_id

    @property
    def wrapping_version(self) -> int:  # type: ignore[override]
        return self._wrapping.version

    @property
    def payload_id(self) -> str:  # type: ignore[override]
        return self._payload.key_id

    @property
    def payload_version(self) -> int:  # type: ignore[override]
        return self._payload.version

    @property
    def ciphertext(self) -> bytes:  # type: ignore[override]
        blob = self._ciphertext
        if blob is None:
            payload = self._payload
            nonce = _nonce(self._wrapping, payload.key_id, payload.version)
            blob = encrypt(self._wrapping.secret, nonce, payload.secret)
            _set_ciphertext(self, blob)
        return blob

    @property
    def materialized(self) -> bool:
        """Whether the ciphertext has been computed yet."""
        return self._ciphertext is not None

    # Slots of a frozen class: the default unpickler would setattr them.
    def __getstate__(self) -> tuple:
        return (self._wrapping, self._payload, self._ciphertext)

    def __setstate__(self, state: tuple) -> None:
        _set_wrapping(self, state[0])
        _set_payload(self, state[1])
        _set_ciphertext(self, state[2])

    # The generated dataclass __eq__/__hash__ refuse mixed-class
    # comparison; delivery tests compare deferred wraps against eager
    # ones, so compare by field content (materializing if needed).
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EncryptedKey):
            return NotImplemented
        return (
            self.wrapping_id == other.wrapping_id
            and self.wrapping_version == other.wrapping_version
            and self.payload_id == other.payload_id
            and self.payload_version == other.payload_version
            and self.ciphertext == other.ciphertext
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.wrapping_id,
                self.wrapping_version,
                self.payload_id,
                self.payload_version,
                self.ciphertext,
            )
        )


_set_wrapping = LazyEncryptedKey._wrapping.__set__
_set_payload = LazyEncryptedKey._payload.__set__
_set_ciphertext = LazyEncryptedKey._ciphertext.__set__


_WRAP_MODES = ("eager", "deferred")
_wrap_mode = "eager"


def wrap_mode() -> str:
    """The active wrap mode: ``"eager"`` or ``"deferred"``."""
    return _wrap_mode


def set_wrap_mode(mode: str) -> str:
    """Set the process-wide wrap mode; returns the previous mode.

    ``"eager"`` (default) computes ciphertexts inside :func:`wrap_key`;
    ``"deferred"`` returns :class:`LazyEncryptedKey` records that encrypt
    on first ciphertext access.  Prefer the :func:`deferred_wraps`
    context manager, which restores the previous mode.
    """
    global _wrap_mode
    if mode not in _WRAP_MODES:
        raise ValueError(f"wrap mode must be one of {_WRAP_MODES}, got {mode!r}")
    previous = _wrap_mode
    _wrap_mode = mode
    return previous


@contextmanager
def deferred_wraps(enabled: bool = True) -> Iterator[None]:
    """Run the body with deferred (or, with ``enabled=False``, eager) wraps."""
    previous = set_wrap_mode("deferred" if enabled else "eager")
    try:
        yield
    finally:
        set_wrap_mode(previous)


def wrap_key(wrapping: KeyMaterial, payload: KeyMaterial) -> EncryptedKey:
    """Encrypt ``payload`` under ``wrapping``.

    In deferred mode (see :func:`set_wrap_mode`) the returned record
    postpones the actual encryption until its ciphertext is first read.

    This is the universal wrap choke point, so the ``crypto.wraps``
    counter here is mode- and backend-independent: sharded process-pool
    workers count their shard's wraps locally and ship the delta home,
    making serial and ``--workers N`` totals comparable.
    """
    perf_count("crypto.wraps")
    if _wrap_mode == "deferred":
        return LazyEncryptedKey(wrapping, payload)
    nonce = _nonce(wrapping, payload.key_id, payload.version)
    ciphertext = encrypt(wrapping.secret, nonce, payload.secret)
    return EncryptedKey(
        wrapping_id=wrapping.key_id,
        wrapping_version=wrapping.version,
        payload_id=payload.key_id,
        payload_version=payload.version,
        ciphertext=ciphertext,
    )


def unwrap_key(wrapping: KeyMaterial, encrypted: EncryptedKey) -> KeyMaterial:
    """Recover the payload key from ``encrypted`` using ``wrapping``.

    Raises
    ------
    ValueError
        If ``wrapping`` is not the key the payload was wrapped under (the
        caller looked up the wrong key).
    repro.crypto.AuthenticationError
        If the ciphertext fails authentication (forged or corrupted).
    """
    perf_count("crypto.unwraps")
    if (
        wrapping.key_id != encrypted.wrapping_id
        or wrapping.version != encrypted.wrapping_version
    ):
        raise ValueError(
            f"wrapping key mismatch: have {wrapping.handle}, "
            f"need {encrypted.wrapping_handle}"
        )
    payload_id = encrypted.payload_id
    payload_version = encrypted.payload_version
    nonce = _nonce(wrapping, payload_id, payload_version)
    secret = decrypt(wrapping.secret, nonce, encrypted.ciphertext)
    # The record came off the wire: the checks of KeyMaterial.__post_init__
    # apply (decrypt always returns bytes), spelled out here because this
    # runs once per key learned by every receiver and the frozen-dataclass
    # constructor costs more than the rest of the function.
    if len(secret) != KEY_SIZE:
        raise ValueError(f"secret must be {KEY_SIZE} bytes, got {len(secret)}")
    if payload_version < 0:
        raise ValueError("version must be non-negative")
    return KeyMaterial._trusted(payload_id, payload_version, secret)


class WrapIndex:
    """Position-preserving index of a rekey payload by wrapping key id.

    Built once per payload (a :class:`~repro.keytree.lkh.RekeyMessage` or
    :class:`~repro.server.base.BatchResult` caches one) and shared by every
    receiver: a member holding ``H`` keys resolves its deliverable subset
    in O(H · b) dict lookups — ``b`` being the per-key bucket size, bounded
    by the tree degree — instead of scanning the whole message.  Positions
    are kept so results can be returned in exact message order.

    ``buckets`` is the ``wrapping_id -> [(position, key)]`` map itself,
    read-only to callers: the per-receiver loops (:meth:`closure`,
    :meth:`repro.members.member.Member.absorb`) test membership in it and
    iterate its lists directly, so a key id nothing is wrapped under costs
    them one dict probe and no call.

    ``opened`` and ``opened_with`` are the opened-wrap table, ``position ->
    payload key`` and ``position -> the wrapping secret that opened it``:
    the receivers of one payload run in one process, and a wrap near the
    root is opened from the same ciphertext under the same key by every
    receiver below it.  :meth:`~repro.members.member.Member.absorb` stores
    the first successful :func:`unwrap_key` at a position; a later
    receiver takes the stored payload only if the secret it holds *is* the
    stored one or has the same bytes, which is exactly when its own
    decrypt would return the same thing.  A failed open is never stored.
    The table holds plaintext keys, so it lives and dies with its payload
    and is dropped on pickling; a rebuilt index starts empty.  (Two maps,
    not one of pairs: a tuple per wrap is a collector-tracked object that
    lives as long as the payload.)
    """

    def __init__(self, keys: Sequence[EncryptedKey]) -> None:
        buckets: Dict[str, List[Tuple[int, EncryptedKey]]] = {}
        for position, ek in enumerate(keys):
            buckets.setdefault(ek.wrapping_id, []).append((position, ek))
        self.buckets = buckets
        self.size = len(keys)
        self.opened: Dict[int, KeyMaterial] = {}
        self.opened_with: Dict[int, bytes] = {}

    # The opened-wrap table holds plaintext keys, so it never leaves the
    # process: a pickled (or copied) index carries ciphertext records only.
    def __getstate__(self) -> tuple:
        return (self.buckets, self.size)

    def __setstate__(self, state: tuple) -> None:
        self.buckets, self.size = state
        self.opened = {}
        self.opened_with = {}

    _EMPTY: Tuple[Tuple[int, EncryptedKey], ...] = ()

    def wraps_under(self, key_id: str) -> Sequence[Tuple[int, EncryptedKey]]:
        """All ``(position, key)`` wraps encrypted under ``key_id``."""
        return self.buckets.get(key_id, self._EMPTY)

    def direct_matches(
        self, held: Dict[str, int]
    ) -> List[Tuple[int, EncryptedKey]]:
        """Wraps directly openable with ``held`` keys, in message order.

        Equivalent to filtering the payload linearly on
        ``held[wrapping_id] == wrapping_version``, but touches only the
        buckets of held key ids.
        """
        matches: List[Tuple[int, EncryptedKey]] = []
        examined = 0
        for key_id, version in held.items():
            bucket = self.buckets.get(key_id, self._EMPTY)
            examined += len(bucket)
            for position, ek in bucket:
                if ek.wrapping_version == version:
                    matches.append((position, ek))
        if examined:
            perf_count("wrapindex.examined", examined)
        matches.sort()
        return matches

    def closure(self, versions: Dict[str, int]) -> List[Tuple[int, EncryptedKey]]:
        """Fixed-point reachable wraps for a holder of ``versions``.

        A wrap is reachable if openable with a held key or with a payload
        learned from another reachable wrap of the same message (rekey
        messages chain fresh parents onto fresh children).  Learning a
        newer version of a key does not forget the old one: a wrap under
        a handle the holder ever possessed stays openable, so every
        originally-held and learned (id, version) handle remains in the
        work set.  ``versions`` is not mutated.  Results come back sorted
        by message position; total work is proportional to the wraps
        actually examined — O(tree depth) per receiver — not to the
        message size.
        """
        buckets = self.buckets
        best = dict(versions)  # newest version known per id: novelty test
        # Only handles something is wrapped under can open anything.  A
        # handle enters the frontier at most once: a learned one must beat
        # ``best`` to get in, and ``best`` only grows.
        frontier: List[Tuple[str, int]] = [
            handle for handle in versions.items() if handle[0] in buckets
        ]
        out: List[Tuple[int, EncryptedKey]] = []
        examined = 0
        while frontier:
            key_id, version = frontier.pop()
            bucket = buckets[key_id]
            examined += len(bucket)
            for entry in bucket:
                ek = entry[1]
                if ek.wrapping_version != version:
                    continue
                payload_id = ek.payload_id
                payload_version = ek.payload_version
                if best.get(payload_id, -1) >= payload_version:
                    continue
                best[payload_id] = payload_version
                out.append(entry)
                # The learned payload may unlock further wraps.
                if payload_id in buckets:
                    frontier.append((payload_id, payload_version))
        if examined:
            perf_count("wrapindex.examined", examined)
        out.sort()
        return out
