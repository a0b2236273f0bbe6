"""Symmetric key material and deterministic key generation.

Keys in a logical key hierarchy are identified objects: the key server and
every member must agree on *which* key a ciphertext was produced under.  A
:class:`KeyMaterial` therefore carries a ``key_id`` (stable identity of the
tree node or member the key belongs to) and a ``version`` (bumped every time
the node is rekeyed) alongside the secret bytes.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator

KEY_SIZE = 32
"""Secret length in bytes (SHA-256 output size)."""


@dataclass(frozen=True, repr=False)
class KeyMaterial:
    """An identified, versioned symmetric key.

    Parameters
    ----------
    key_id:
        Stable identifier of the logical key (e.g. the key-tree node id or
        ``"member:42"`` for an individual key).
    version:
        Monotonically increasing rekey generation for this ``key_id``.
    secret:
        ``KEY_SIZE`` bytes of key material.

    A key is a slotted record with no per-instance ``__dict__``, since a
    server holds one per admitted member.  Its repr never shows the
    secret, and it pickles and copies only through the validating
    constructor (:meth:`__reduce__`).
    """

    __slots__ = ("key_id", "version", "secret")

    key_id: str
    version: int
    secret: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.secret, (bytes, bytearray)):
            raise TypeError("secret must be bytes")
        if len(self.secret) != KEY_SIZE:
            raise ValueError(
                f"secret must be {KEY_SIZE} bytes, got {len(self.secret)}"
            )
        if self.version < 0:
            raise ValueError("version must be non-negative")
        if type(self.secret) is not bytes:
            # An immutable copy: a caller's buffer can neither change the
            # key afterwards nor make it unhashable.
            object.__setattr__(self, "secret", bytes(self.secret))

    def __repr__(self) -> str:
        return f"KeyMaterial(key_id={self.key_id!r}, version={self.version!r})"

    def __reduce__(self) -> tuple:
        return (KeyMaterial, (self.key_id, self.version, self.secret))

    @classmethod
    def _trusted(cls, key_id: str, version: int, secret: bytes) -> "KeyMaterial":
        """Construct without validation, for internally generated keys.

        :class:`KeyGenerator` output always satisfies the ``__post_init__``
        checks (fresh SHA-256 digests at non-negative versions), and key
        construction sits on the batch-rekeying hot path — one marked node,
        one new ``KeyMaterial``.  Setting the three slots directly skips
        the frozen-dataclass ``__init__``.  Anything carrying external
        bytes must be validated first: deserialization (pickle included)
        uses the validating constructor, and
        :func:`repro.crypto.wrap.unwrap_key` (once per key learned by
        every receiver) makes the same checks itself before calling this.
        """
        material = object.__new__(cls)
        _set_key_id(material, key_id)
        _set_version(material, version)
        _set_secret(material, secret)
        return material

    @property
    def handle(self) -> tuple:
        """Hashable ``(key_id, version)`` pair naming this exact key."""
        return (self.key_id, self.version)

    def to_dict(self) -> dict:
        """JSON-compatible form (SENSITIVE: carries the secret)."""
        return {"id": self.key_id, "version": self.version, "secret": self.secret.hex()}

    @classmethod
    def from_dict(cls, data: dict) -> "KeyMaterial":
        """Rebuild from :meth:`to_dict` output, validating the bytes."""
        return cls(data["id"], int(data["version"]), bytes.fromhex(data["secret"]))

    def fingerprint(self) -> str:
        """Short hex digest of the secret, safe to log or compare in tests."""
        return hashlib.sha256(self.secret).hexdigest()[:16]

    def advance(self) -> "KeyMaterial":
        """One-way version bump: ``K_{v+1} = H(K_v)`` (ELK [PST01] /
        LKH+ style join refresh).

        Every current holder computes the new version locally — zero
        multicast bytes — while a joiner handed only ``K_{v+1}`` cannot
        invert the hash to read pre-join traffic.  Never use for
        *departures*: the departed member could advance right along.
        """
        return KeyMaterial(
            key_id=self.key_id,
            version=self.version + 1,
            secret=advance_secret(self.secret),
        )


def advance_secret(secret: bytes) -> bytes:
    """The one-way step ``H(K_v)`` behind :meth:`KeyMaterial.advance`."""
    return hmac.new(secret, b"repro-advance", hashlib.sha256).digest()


_sha256 = hashlib.sha256  # bound once: every fresh key comes through _derive


def _derive(root: bytes, counter: int) -> bytes:
    """The :class:`KeyGenerator` secret at ``counter``: one SHA-256 over
    ``root || counter`` — the root is secret and fixed-length, so the
    keyed-hash construction is sound here and roughly halves per-key
    derivation cost versus HMAC (every marked tree node of a batch needs
    a fresh key)."""
    return _sha256(root + counter.to_bytes(8, "big")).digest()


# The slots' own setters: the frozen ``__setattr__`` refuses writes, and
# calling the descriptors skips the attribute lookup on every new key.
_set_key_id = KeyMaterial.key_id.__set__  # type: ignore[attr-defined]
_set_version = KeyMaterial.version.__set__  # type: ignore[attr-defined]
_set_secret = KeyMaterial.secret.__set__  # type: ignore[attr-defined]


class KeyGenerator:
    """Deterministic factory for fresh :class:`KeyMaterial`.

    A real key server would draw from a CSPRNG; for reproducible simulations
    we derive each fresh key from a seed and a counter with SHA-256.
    Two generators with the same seed emit the same key sequence, which
    makes simulation runs replayable.
    """

    def __init__(self, seed: int = 0) -> None:
        self._root = hashlib.sha256(f"repro-keygen:{seed}".encode("utf-8")).digest()
        self._counter = 0

    def state(self) -> dict:
        """Serializable generator state (SENSITIVE: determines all future
        keys).  Used by :mod:`repro.server.snapshot`."""
        return {"root": self._root.hex(), "counter": self._counter}

    @classmethod
    def from_state(cls, state: dict) -> "KeyGenerator":
        """Rebuild a generator from :meth:`state` output."""
        generator = cls()
        generator._root = bytes.fromhex(state["root"])
        generator._counter = int(state["counter"])
        return generator

    def fresh_secret(self) -> bytes:
        """Return ``KEY_SIZE`` fresh pseudo-random bytes (the next counter
        draw)."""
        self._counter += 1
        return _derive(self._root, self._counter)

    def fresh_secrets(self, count: int) -> Iterator[bytes]:
        """The next ``count`` secrets, equal to ``count`` calls of
        :meth:`fresh_secret` in a row.

        The draws are taken at the call; each secret is derived as it is
        read, so a caller storing them one by one over the keys they
        replace never holds both sets (a bulk build of N members at degree
        d refreshes about N / (d - 1) keys).
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        start = self._counter
        self._counter = start + count
        counters = range(start + 1, start + count + 1)
        return map(_derive, repeat(self._root, count), counters)

    def generate(self, key_id: str, version: int = 0) -> KeyMaterial:
        """Create fresh key material for ``key_id`` at ``version``."""
        if version < 0:
            raise ValueError("version must be non-negative")
        return KeyMaterial._trusted(key_id, version, self.fresh_secret())

    def rekey(self, old: KeyMaterial) -> KeyMaterial:
        """Create a fresh replacement for ``old`` with the version bumped.

        The new secret is unrelated to the old one (fresh randomness), which
        is what forward confidentiality requires.
        """
        return KeyMaterial._trusted(old.key_id, old.version + 1, self.fresh_secret())
