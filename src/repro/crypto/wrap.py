"""Key wrapping: encrypting one key under another.

A rekey message in any LKH-family protocol is a collection of *wrapped keys*:
``{K_new}_{K_child}`` — the new key for a tree node, encrypted under a key
already held by some subset of the members.  :class:`EncryptedKey` is the
unit the transport layer packs into packets and the unit every cost metric
in the paper counts.

Three performance facilities live here because they are properties of the
wrapped-key unit itself:

* **seal on first read** — the paper's cost metric is the *count* of
  encrypted keys, so analytic experiments and cost-only simulations never
  look at ciphertext bytes.  :meth:`WrapBatch.add` keeps a row's two
  secrets and seals the row on the first read of its ciphertext (a member
  unwrap, the wire codec, a row view, pickling), so a run that never
  delivers to real members does no HMAC work at all.  The wire codec and
  pickling read the whole column through :meth:`WrapBatch.ciphertexts`,
  which seals a chunk of rows per C-level column pass.
* **:class:`WrapBatch`** — a whole payload as columns, one row per wrap,
  from the rekeyer through the wire codec to :meth:`Member.absorb
  <repro.members.member.Member.absorb>`.  No row is an object: an
  :class:`EncryptedKey` is built only when someone asks for one.
* **:class:`WrapIndex`** — a ``wrapping_id -> rows`` index over a payload.
  Receivers hold O(tree depth) keys, so indexed lookup makes per-receiver
  delivery work O(depth) instead of a linear scan over the whole message
  (the sparseness property of Section 2.2, realized).

:class:`RekeyMessage` — one rekey operation's payload with its epoch and
membership deltas, caching the payload's :class:`WrapIndex` — lives here
too: a batch and its index are all it is made of.
"""

from __future__ import annotations

import operator
from collections import abc
from dataclasses import dataclass, field
from itertools import compress, repeat
from typing import Dict, Iterable, List, Optional, Tuple

from repro.crypto.cipher import decrypt, encrypt, encrypt_column
from repro.crypto.material import KEY_SIZE, KeyMaterial
from repro.obs import metrics as obs_metrics

#: Rows :meth:`WrapBatch.ciphertexts` seals per :func:`encrypt_column`
#: call: bounds the transient lists (padded subkeys among them) of one pass.
_CHUNK = 512
_NONCE = "{}#{}->{}#{}"  # the nonce text of _seal and _open, for a column


class SealError(ValueError):
    """A payload row cannot be sealed: its wrapping and payload secrets
    are not two ``KEY_SIZE``-byte ``bytes``.  Raised on the row's first
    read (the row's seal), naming the row."""


def _seal(
    wrapping_id: str,
    wrapping_version: int,
    payload_id: str,
    payload_version: int,
    wrapping_secret: bytes,
    payload_secret: bytes,
) -> bytes:
    """The one wrap core: the ciphertext of ``payload_secret`` under
    ``wrapping_secret`` for the given handles.

    The nonce is the text ``wrapping#version->payload#version``: unique per
    (wrapping key, payload key) pair.  It is spelled out here, in
    :func:`_open` and as ``_NONCE`` (the column seal's) rather than in a
    helper, one frame less per wrap."""
    nonce = f"{wrapping_id}#{wrapping_version}->{payload_id}#{payload_version}"
    return encrypt(wrapping_secret, nonce.encode(), payload_secret)


def _open(
    wrapping: KeyMaterial, payload_id: str, payload_version: int, ciphertext: bytes
) -> KeyMaterial:
    """The one unwrap core, behind :func:`unwrap_key` and
    :meth:`WrapBatch.unwrap`: decrypt a wrap whose wrapping handle the
    caller has matched against ``wrapping``."""
    obs_metrics.inc("crypto.unwraps")
    nonce = f"{wrapping.key_id}#{wrapping.version}->{payload_id}#{payload_version}"
    secret = decrypt(wrapping.secret, nonce.encode(), ciphertext)
    # The record came off the wire: the checks of KeyMaterial.__post_init__
    # apply (decrypt always returns bytes), spelled out here because this
    # runs once per key learned by every receiver and the frozen-dataclass
    # constructor costs more than the rest of the function.
    if len(secret) != KEY_SIZE:
        raise ValueError(f"secret must be {KEY_SIZE} bytes, got {len(secret)}")
    if payload_version < 0:
        raise ValueError("version must be non-negative")
    return KeyMaterial._trusted(payload_id, payload_version, secret)


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


def wrap_key(wrapping: KeyMaterial, payload: KeyMaterial) -> EncryptedKey:
    """Encrypt ``payload`` under ``wrapping``: the per-record API, sealed
    at once.

    This and :meth:`WrapBatch.add` make every wrap; the ``crypto.wraps``
    counter is bumped here per call and by each payload producer (the
    rekeyers, the DEK stitch) per batch.
    """
    obs_metrics.inc("crypto.wraps")
    handles = (*wrapping.handle, *payload.handle)
    return EncryptedKey(*handles, _seal(*handles, wrapping.secret, payload.secret))


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
    if (
        wrapping.key_id != encrypted.wrapping_id
        or wrapping.version != encrypted.wrapping_version
    ):
        raise ValueError(
            f"wrapping key mismatch: have {wrapping.handle}, "
            f"need {encrypted.wrapping_handle}"
        )
    return _open(
        wrapping, encrypted.payload_id, encrypted.payload_version, encrypted.ciphertext
    )


class WrapBatch(abc.Sequence):
    """A rekey payload as columns: one row per wrap, in message order.

    ``wrapping_ids``, ``wrapping_versions``, ``payload_ids`` and
    ``payload_versions`` are plain lists, read-only to callers.  A row's
    ciphertext is read through :meth:`ciphertext` (or the whole column
    through :meth:`ciphertexts`): a row made by :meth:`add` holds its two
    secrets instead, a column each, and seals on that first read.  Ids,
    versions, ciphertexts and secrets are strings, ints and bytes, so no row creates
    an object the cyclic collector tracks.

    The batch is a ``Sequence[EncryptedKey]``: indexing a row seals it and
    builds an :class:`EncryptedKey` view, slicing copies the columns (an
    unsealed row stays unsealed), and a batch compares equal to a list of
    the same records.  :meth:`append` / :meth:`extend` take any
    :class:`EncryptedKey`, so per-record producers such as
    :func:`wrap_key` feed the same columns.  A pickled batch is sealed
    first and carries ciphertext only, never a secret.
    """

    def __init__(self, keys: Iterable[EncryptedKey] = ()) -> None:
        self.wrapping_ids: List[str] = []
        self.wrapping_versions: List[int] = []
        self.payload_ids: List[str] = []
        self.payload_versions: List[int] = []
        self._ciphertexts: List[Optional[bytes]] = []  # None: not sealed yet
        #: The wrapping / payload secret of a row not sealed yet, else None.
        self._wrapping_secrets: List[Optional[bytes]] = []
        self._payload_secrets: List[Optional[bytes]] = []
        self.extend(keys)

    @classmethod
    def from_columns(cls, *columns: list) -> "WrapBatch":
        """A sealed batch over the wrapping id, wrapping version, payload
        id, payload version and ciphertext columns (taken, not copied)."""
        batch = cls()
        batch.__setstate__(columns)
        return batch

    def _columns(self) -> tuple:
        return (
            self.wrapping_ids, self.wrapping_versions, self.payload_ids,
            self.payload_versions, self._ciphertexts,
            self._wrapping_secrets, self._payload_secrets,
        )

    # Sealed on the way out: no secrets column ever leaves the process.
    def __getstate__(self) -> tuple:
        self.ciphertexts()
        return self._columns()[:5]

    def __setstate__(self, state: tuple) -> None:
        (self.wrapping_ids, self.wrapping_versions, self.payload_ids,
         self.payload_versions, self._ciphertexts) = state
        self._wrapping_secrets = [None] * len(self._ciphertexts)
        self._payload_secrets = [None] * len(self._ciphertexts)

    def add(
        self,
        wrapping_id: str,
        wrapping_version: int,
        payload_id: str,
        payload_version: int,
        wrapping_secret: bytes,
        payload_secret: bytes,
    ) -> None:
        """Append the wrap of ``payload_secret`` under ``wrapping_secret``,
        sealed on its first read.  The row keeps the two objects, not
        copies: they must be ``bytes``, which nothing can change, so a late
        seal uses the keys as added.  (The flat kernel passes its slot
        objects, which a refresh replaces and never mutates.)"""
        self.wrapping_ids.append(wrapping_id)
        self.wrapping_versions.append(wrapping_version)
        self.payload_ids.append(payload_id)
        self.payload_versions.append(payload_version)
        self._ciphertexts.append(None)
        self._wrapping_secrets.append(wrapping_secret)
        self._payload_secrets.append(payload_secret)

    def append(self, key: EncryptedKey) -> None:
        """Append one sealed record as a row."""
        row = (
            key.wrapping_id, key.wrapping_version,
            key.payload_id, key.payload_version, key.ciphertext, None, None,
        )
        for column, value in zip(self._columns(), row):
            column.append(value)

    def extend(self, keys: Iterable[EncryptedKey]) -> None:
        """Append records; another batch is concatenated column by column."""
        if not isinstance(keys, WrapBatch):
            for key in keys:
                self.append(key)
            return
        for mine, theirs in zip(self._columns(), keys._columns()):
            mine.extend(theirs)

    def __len__(self) -> int:
        return len(self._ciphertexts)

    def __getitem__(self, row):
        if isinstance(row, slice):
            sliced = WrapBatch()
            for mine, theirs in zip(sliced._columns(), self._columns()):
                mine.extend(theirs[row])
            return sliced
        row = range(len(self))[row]
        return EncryptedKey(
            self.wrapping_ids[row], self.wrapping_versions[row],
            self.payload_ids[row], self.payload_versions[row],
            self.ciphertext(row),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (WrapBatch, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"WrapBatch({list(self)!r})"

    def is_sealed(self, row: int) -> bool:
        """Whether row ``row`` holds its ciphertext yet."""
        return self._ciphertexts[row] is not None

    def _unsealable(self, row: int) -> SealError:
        wrapping, payload = self._wrapping_secrets[row], self._payload_secrets[row]
        return SealError(
            f"row {row} ({self.wrapping_ids[row]}#{self.wrapping_versions[row]}"
            f"->{self.payload_ids[row]}#{self.payload_versions[row]}): the "
            f"wrapping and payload secrets must be two {KEY_SIZE}-byte bytes, "
            f"got {type(wrapping).__name__} of {len(wrapping)} and "
            f"{type(payload).__name__} of {len(payload)} bytes"
        )

    def ciphertext(self, row: int) -> bytes:
        """Row ``row``'s ciphertext, sealing the row first if need be.

        Raises
        ------
        SealError
            If the row was added with secrets that are not two
            ``KEY_SIZE``-byte ``bytes``.
        """
        blob = self._ciphertexts[row]
        if blob is None:
            wrapping = self._wrapping_secrets[row]
            payload = self._payload_secrets[row]
            if not (
                type(wrapping) is type(payload) is bytes
                and len(wrapping) == len(payload) == KEY_SIZE
            ):
                raise self._unsealable(row)
            self._wrapping_secrets[row] = self._payload_secrets[row] = None
            blob = _seal(
                self.wrapping_ids[row], self.wrapping_versions[row],
                self.payload_ids[row], self.payload_versions[row],
                wrapping, payload,
            )
            self._ciphertexts[row] = blob
        return blob

    def ciphertexts(self) -> List[bytes]:
        """The ciphertext column, every unsealed row sealed first.

        The unsealed rows of each ``_CHUNK`` rows seal in one
        :func:`~repro.crypto.cipher.encrypt_column` pass, byte for byte
        what :meth:`ciphertext` gives each of them.  A malformed row
        raises the same :class:`SealError`, and the rows before it in its
        chunk are sealed as :meth:`ciphertext` would have sealed them.
        """
        blobs = self._ciphertexts
        if None not in blobs:
            return blobs
        wrapping_secrets = self._wrapping_secrets
        payload_secrets = self._payload_secrets
        columns = (
            self.wrapping_ids, self.wrapping_versions,
            self.payload_ids, self.payload_versions,
        )
        for start in range(0, len(blobs), _CHUNK):
            stop = start + _CHUNK
            rows = list(compress(
                range(start, stop), map(operator.is_, blobs[start:stop], repeat(None))
            ))
            if not rows:
                continue
            keys = list(map(wrapping_secrets.__getitem__, rows))
            payloads = list(map(payload_secrets.__getitem__, rows))
            both = keys + payloads
            if set(map(type, both)) != {bytes} or set(map(len, both)) != {KEY_SIZE}:
                for row in rows:
                    self.ciphertext(row)  # raises at the first malformed row
            nonces = list(map(str.encode, map(_NONCE.format, *(
                map(column.__getitem__, rows) for column in columns
            ))))
            sealed = encrypt_column(keys, nonces, payloads)
            del keys, payloads, both
            for row, blob in zip(rows, sealed):
                blobs[row] = blob
                wrapping_secrets[row] = payload_secrets[row] = None
        return blobs

    def unwrap(self, row: int, wrapping: KeyMaterial) -> KeyMaterial:
        """:func:`unwrap_key` of row ``row``, whose wrapping handle the
        caller has matched against ``wrapping``."""
        return _open(
            wrapping, self.payload_ids[row], self.payload_versions[row],
            self.ciphertext(row),
        )


class WrapIndex:
    """Index of a rekey payload by wrapping key id, in row numbers.

    Built once per payload (a :class:`RekeyMessage` or
    :class:`~repro.server.base.BatchResult` caches one) and shared by every
    receiver: a member holding ``H`` keys resolves its deliverable subset
    in O(H · b) dict lookups — ``b`` being the rows wrapped under one key,
    bounded by the tree degree — instead of scanning the whole message.
    Every query answers row numbers of :attr:`batch` in message order.

    ``heads`` maps a wrapping id to the first row wrapped under it and
    ``chain`` a row to the next row under the same id (``-1``: none),
    read-only to callers: the per-receiver loops (:meth:`closure`,
    :meth:`repro.members.member.Member.absorb`) walk them directly over
    the batch's columns, so a key id nothing is wrapped under costs them
    one dict probe.  Two flat maps of ints, not a list per id: nothing
    the index holds grows with the payload in collector-tracked objects.

    ``opened`` and ``opened_with`` are the opened-wrap table, ``row ->
    payload key`` and ``row -> the wrapping secret that opened it``:
    the receivers of one payload run in one process, and a wrap near the
    root is opened from the same ciphertext under the same key by every
    receiver below it.  :meth:`~repro.members.member.Member.absorb` stores
    the first successful unwrap at a row; a later receiver takes the
    stored payload only if the secret it holds *is* the stored one or has
    the same bytes, which is exactly when its own decrypt would return
    the same thing.  A failed open is never stored.  The table holds
    plaintext keys, so it lives and dies with its payload and is dropped
    on pickling; a rebuilt index starts empty.
    """

    def __init__(self, keys: Iterable[EncryptedKey]) -> None:
        batch = keys if isinstance(keys, WrapBatch) else WrapBatch(keys)
        ids = batch.wrapping_ids
        heads: Dict[str, int] = {}
        chain = [-1] * len(ids)
        # Last row first, so each id ends up at its first row.
        for row in range(len(ids) - 1, -1, -1):
            chain[row] = heads.get(ids[row], -1)
            heads[ids[row]] = row
        self.batch = batch
        self.heads = heads
        self.chain = chain
        self.size = len(chain)
        self.opened: Dict[int, KeyMaterial] = {}
        self.opened_with: Dict[int, bytes] = {}

    # The opened-wrap table holds plaintext keys, so it never leaves the
    # process: a pickled (or copied) index drops it.  The batch goes along
    # sealed, as ciphertext only (see docs/security.md).
    def __getstate__(self) -> tuple:
        return (self.batch, self.heads, self.chain)

    def __setstate__(self, state: tuple) -> None:
        self.batch, self.heads, self.chain = state
        self.size = len(self.chain)
        self.opened = {}
        self.opened_with = {}

    def closure(self, versions: Dict[str, int]) -> List[int]:
        """Fixed-point reachable rows for a holder of ``versions``.

        A wrap is reachable if openable with a held key or with a payload
        learned from another reachable wrap of the same message (rekey
        messages chain fresh parents onto fresh children).  Learning a
        newer version of a key does not forget the old one: a wrap under
        a handle the holder ever possessed stays openable, so every
        originally-held and learned (id, version) handle remains in the
        work set.  ``versions`` is not mutated.  Rows come back sorted;
        total work is proportional to the wraps actually examined —
        O(tree depth) per receiver — not to the message size.

        The server names each row's audience off its trees
        (:meth:`~repro.server.partitioned.PartitionedServer.audiences`);
        this is the receiver's side of that fact, the reference the naming
        is tested against.
        """
        heads, chain = self.heads, self.chain
        batch = self.batch
        wrapping_versions = batch.wrapping_versions
        payload_ids = batch.payload_ids
        payload_versions = batch.payload_versions
        best = dict(versions)  # newest version known per id: novelty test
        # Only handles something is wrapped under can open anything.  A
        # handle enters the frontier at most once: a learned one must beat
        # ``best`` to get in, and ``best`` only grows.
        frontier = [handle for handle in versions.items() if handle[0] in heads]
        out: List[int] = []
        examined = 0
        while frontier:
            key_id, version = frontier.pop()
            row = heads[key_id]
            while row >= 0:
                examined += 1
                if wrapping_versions[row] == version:
                    payload_id = payload_ids[row]
                    payload_version = payload_versions[row]
                    if best.get(payload_id, -1) < payload_version:
                        best[payload_id] = payload_version
                        out.append(row)
                        # The learned payload may unlock further wraps.
                        if payload_id in heads:
                            frontier.append((payload_id, payload_version))
                row = chain[row]
        if examined:
            obs_metrics.inc("wrapindex.examined", examined)
        out.sort()
        return out


@dataclass
class RekeyMessage:
    """The output of one rekeying operation: the keys to multicast.

    ``len(encrypted_keys)`` is the paper's cost metric (number of encrypted
    keys the server must deliver).  The transport layer packs these into
    packets; members extract the subset wrapped under keys they hold.
    Rekeyers append to a :class:`WrapBatch`; any sequence of
    :class:`EncryptedKey` records is accepted in its place.
    """

    group: str
    epoch: int
    encrypted_keys: WrapBatch = field(default_factory=WrapBatch)
    updated: List[Tuple[str, int]] = field(default_factory=list)
    #: ELK/LKH+ one-way advances: ``(key_id, new_version)`` pairs every
    #: current holder computes locally as ``K_{v+1} = H(K_v)`` — no bytes
    #: on the wire (see ``FlatRekeyer.rekey_batch(join_refresh="owf")``).
    advanced: List[Tuple[str, int]] = field(default_factory=list)
    departed: List[str] = field(default_factory=list)
    joined: List[str] = field(default_factory=list)
    #: Lazily built positional index over ``encrypted_keys``; excluded
    #: from equality/repr because it is pure derived state.
    _index: Optional[WrapIndex] = field(
        default=None, repr=False, compare=False
    )

    @property
    def cost(self) -> int:
        """Number of encrypted keys in the message."""
        return len(self.encrypted_keys)

    def index(self) -> WrapIndex:
        """The ``wrapping_id -> rows`` index of this payload.

        Built once on first use and shared by every receiver the message
        is delivered to — the heart of the O(depth)-per-member delivery
        path.  Rebuilt automatically if keys were appended since the last
        build (rekeyers construct messages incrementally).
        """
        index = self._index
        if index is None or index.size != len(self.encrypted_keys):
            index = WrapIndex(self.encrypted_keys)
            self._index = index
        return index
