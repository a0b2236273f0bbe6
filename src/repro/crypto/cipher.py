"""Authenticated symmetric encryption built from HMAC-SHA256.

This is an *encrypt-then-MAC* construction over an HMAC counter-mode
keystream.  It is deliberately simple (pure stdlib, deterministic given the
nonce) but honest: without the key, ciphertexts are indistinguishable from
random to the extent HMAC-SHA256 is a PRF, and tampering is detected.

The rekeying performance results never depend on this module — cost is
counted in number of encrypted keys — but the end-to-end tests use it to
demonstrate that departed members really cannot read post-departure traffic,
and every wrap and receiver unwrap runs through it, so its per-call cost is
the unit cost of the rekey and delivery paths.

A key's two subkeys are ``HMAC(key, "repro-enc")`` (keystream) and
``HMAC(key, "repro-mac")`` (tag).  Every HMAC is written out as two
one-shot hashes, ``sha256(k ^ opad || sha256(k ^ ipad || message))``: the
bytes of ``hmac.new(k, message, sha256).digest()``.  :func:`_subkeys`
derives a key's padded subkeys once; :func:`encrypt` (seal) and
:func:`decrypt` (open) are then one Python frame each, because in pure
Python a wrap costs its calls, not its SHA-256 compressions.

:func:`encrypt_column` is the same seal over a column of rows at once:
every step (key padding, the eight one-shot SHA-256 calls per row, the
XOR, the tag) is one C-level ``map`` over the column, so a row costs no
Python frame at all.  It covers exactly what a rekey payload holds,
32-byte keys and 32-byte plaintexts (one keystream block), and it
neither reads nor fills the :func:`_subkeys` cache: a payload's wrapping
keys are distinct, so a server's seal would only miss there.  It is what
:meth:`~repro.crypto.wrap.WrapBatch.ciphertexts` (the wire encode and
pickling) seals with; a single row's first read, the one a receiver's
open follows, stays on :func:`encrypt` and leaves its subkeys cached.
"""

from __future__ import annotations

import hashlib
import hmac
from functools import lru_cache
from itertools import repeat
from operator import add, getitem, xor
from typing import Iterable, List, Tuple

_TAG_SIZE = 16
_BLOCK = 32  # SHA-256 digest: one keystream block
_HASH_BLOCK = 64  # SHA-256 block: HMAC's key length
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))
_ZERO8 = bytes(8)
_ZERO_BLOCK = bytes(_HASH_BLOCK - _BLOCK)  # pads a 32-byte key to HMAC's 64
_sha256 = hashlib.sha256
_digest = type(_sha256()).digest
_translate = bytes.translate
_TAG = slice(_TAG_SIZE)


class AuthenticationError(Exception):
    """Raised when a ciphertext fails authentication (wrong key or tampered)."""


@lru_cache(maxsize=1024)
def _subkeys(key: bytes) -> Tuple[bytes, bytes, bytes, bytes]:
    """``(enc ^ ipad, enc ^ opad, mac ^ ipad, mac ^ opad)``: the padded
    HMAC keys of ``key``'s keystream and tag subkeys.

    The module's only cache, shared by :func:`encrypt` and
    :func:`decrypt`.  Wraps are under distinct child keys (a wrapping
    handle occurs once per payload), so a seal here mostly misses; what
    the cache buys is the open that follows, which finds the subkeys the
    seal of that row left.  The wire seal of a whole payload goes through
    :func:`encrypt_column` and never touches this cache.  On
    ``server_full_64k`` (ten epochs, seed 20030519) those seals had hit it
    3 times in 38,972; without them the tracked members' opens hit 28% of
    the time instead of 67%, which costs their absorb about 0.5 ms an
    epoch against the 10 ms the column seal saves (docs/performance.md,
    "One column seal per payload").  1024 keys (about 0.6 MB) hold a
    whole epoch's wraps on groups of a few thousand; larger bounds raised
    the hit rate at N = 65,536 but not the epoch time ("One seal, one
    open").  An entry is key-equivalent secret material — see
    docs/security.md.
    """
    if len(key) > _HASH_BLOCK:
        key = _sha256(key).digest()
    key = key.ljust(_HASH_BLOCK, b"\0")
    inner, outer = key.translate(_IPAD), key.translate(_OPAD)
    enc = _sha256(outer + _sha256(inner + b"repro-enc").digest()).digest()
    mac = _sha256(outer + _sha256(inner + b"repro-mac").digest()).digest()
    enc, mac = enc.ljust(_HASH_BLOCK, b"\0"), mac.ljust(_HASH_BLOCK, b"\0")
    return (
        enc.translate(_IPAD), enc.translate(_OPAD),
        mac.translate(_IPAD), mac.translate(_OPAD),
    )


def encrypt(key: bytes, nonce: bytes, plaintext: bytes) -> bytes:
    """Encrypt and authenticate ``plaintext``.

    Parameters
    ----------
    key:
        Symmetric key bytes (any length >= 16).
    nonce:
        Unique-per-(key, message) bytes.  Reuse leaks plaintext XORs, as in
        any stream cipher; callers in this package always derive nonces from
        (key id, version, sequence number).
    plaintext:
        Payload to protect.

    Returns
    -------
    bytes
        ``ciphertext || tag`` where ``tag`` authenticates nonce+ciphertext.
    """
    if len(key) < 16:
        raise ValueError("key must be at least 16 bytes")
    enc_in, enc_out, mac_in, mac_out = _subkeys(key)
    length = len(plaintext)
    # Counter-mode keystream; one block is one wrapped key.
    stream = _sha256(enc_out + _sha256(enc_in + nonce + _ZERO8).digest()).digest()
    for counter in range(1, -(-length // _BLOCK)):
        block = nonce + counter.to_bytes(8, "big")
        stream += _sha256(enc_out + _sha256(enc_in + block).digest()).digest()
    ciphertext = (
        int.from_bytes(plaintext, "big") ^ int.from_bytes(stream[:length], "big")
    ).to_bytes(length, "big")
    tag = _sha256(mac_out + _sha256(mac_in + nonce + ciphertext).digest()).digest()
    return ciphertext + tag[:_TAG_SIZE]


def _hmac_column(
    inner: Iterable[bytes], outer: Iterable[bytes], messages: Iterable[bytes]
) -> List[bytes]:
    """``sha256(outer || sha256(inner || message))`` row by row: the HMAC of
    each message under the padded keys ``inner`` / ``outer``."""
    return list(map(_digest, map(_sha256, map(
        add, outer, map(_digest, map(_sha256, map(add, inner, messages)))
    ))))


def encrypt_column(
    keys: List[bytes], nonces: List[bytes], plaintexts: List[bytes]
) -> List[bytes]:
    """:func:`encrypt` of every row ``(keys[i], nonces[i], plaintexts[i])``,
    byte for byte, as one pass of C-level ``map`` calls over the columns.

    Every key and every plaintext must be 32 bytes: one wrapped key under
    another.  The padded subkeys of the rows exist only in this call's
    lists (see docs/security.md); :func:`_subkeys` is not consulted.
    Callers bound the column length, which bounds those lists.
    """
    if not len(keys) == len(nonces) == len(plaintexts):
        raise ValueError("keys, nonces and plaintexts differ in length")
    if not set(map(len, keys)) | set(map(len, plaintexts)) <= {_BLOCK}:
        raise ValueError(f"every key and plaintext must be {_BLOCK} bytes")
    padded = list(map(add, keys, repeat(_ZERO_BLOCK)))
    inner = list(map(_translate, padded, repeat(_IPAD)))
    outer = list(map(_translate, padded, repeat(_OPAD)))
    enc, mac = (
        list(map(add, _hmac_column(inner, outer, repeat(label)), repeat(_ZERO_BLOCK)))
        for label in (b"repro-enc", b"repro-mac")
    )
    # Each list is dropped once read for the last time: the peak is the
    # chunk's few live columns, not all of them.
    del padded, inner, outer
    stream = _hmac_column(
        map(_translate, enc, repeat(_IPAD)), map(_translate, enc, repeat(_OPAD)),
        map(add, nonces, repeat(_ZERO8)),
    )
    del enc
    ciphertexts = list(map(
        int.to_bytes,
        map(xor, map(int.from_bytes, plaintexts, repeat("big")),
            map(int.from_bytes, stream, repeat("big"))),
        repeat(_BLOCK), repeat("big"),
    ))
    del stream
    tags = _hmac_column(
        map(_translate, mac, repeat(_IPAD)), map(_translate, mac, repeat(_OPAD)),
        map(add, nonces, ciphertexts),
    )
    return list(map(add, ciphertexts, map(getitem, tags, repeat(_TAG))))


def decrypt(key: bytes, nonce: bytes, blob: bytes) -> bytes:
    """Authenticate and decrypt a blob produced by :func:`encrypt`.

    Raises
    ------
    AuthenticationError
        If the tag does not verify — i.e. wrong key, wrong nonce, or a
        tampered ciphertext.  The caller learns nothing about the plaintext.
    """
    if len(key) < 16:
        raise ValueError("key must be at least 16 bytes")
    if len(blob) < _TAG_SIZE:
        raise AuthenticationError("ciphertext too short")
    ciphertext, tag = blob[:-_TAG_SIZE], blob[-_TAG_SIZE:]
    enc_in, enc_out, mac_in, mac_out = _subkeys(key)
    expected = _sha256(mac_out + _sha256(mac_in + nonce + ciphertext).digest()).digest()
    if not hmac.compare_digest(tag, expected[:_TAG_SIZE]):
        raise AuthenticationError("authentication tag mismatch")
    length = len(ciphertext)
    stream = _sha256(enc_out + _sha256(enc_in + nonce + _ZERO8).digest()).digest()
    for counter in range(1, -(-length // _BLOCK)):
        block = nonce + counter.to_bytes(8, "big")
        stream += _sha256(enc_out + _sha256(enc_in + block).digest()).digest()
    return (
        int.from_bytes(ciphertext, "big") ^ int.from_bytes(stream[:length], "big")
    ).to_bytes(length, "big")
