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
"""

from __future__ import annotations

import hashlib
import hmac
from functools import lru_cache
from typing import Tuple

_TAG_SIZE = 16
_BLOCK = 32  # SHA-256 digest: one keystream block
_HASH_BLOCK = 64  # SHA-256 block: HMAC's key length
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))
_ZERO8 = bytes(8)
_sha256 = hashlib.sha256


class AuthenticationError(Exception):
    """Raised when a ciphertext fails authentication (wrong key or tampered)."""


@lru_cache(maxsize=1024)
def _subkeys(key: bytes) -> Tuple[bytes, bytes, bytes, bytes]:
    """``(enc ^ ipad, enc ^ opad, mac ^ ipad, mac ^ opad)``: the padded
    HMAC keys of ``key``'s keystream and tag subkeys.

    The module's only cache, shared by seal and open.  Wraps are under
    distinct child keys, so a server's seal mostly misses; what the cache
    buys is the open that follows, which finds the subkeys the seal of
    that row left.  1024 keys (about 0.6 MB) hold a whole epoch's wraps on
    groups of a few thousand; larger bounds raised the hit rate at
    N = 65,536 but not the epoch time (docs/performance.md, "One seal,
    one open").  An entry is key-equivalent secret material — see
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
