"""Authenticated symmetric encryption built from HMAC-SHA256.

This is an *encrypt-then-MAC* construction over an HMAC counter-mode
keystream.  It is deliberately simple (pure stdlib, deterministic given the
nonce) but honest: without the key, ciphertexts are indistinguishable from
random to the extent HMAC-SHA256 is a PRF, and tampering is detected.

The rekeying performance results never depend on this module — cost is
counted in number of encrypted keys — but the end-to-end tests use it to
demonstrate that departed members really cannot read post-departure traffic,
and every receiver's unwrap runs through it, so its per-MAC cost is the
unit cost of the delivery path.

Every MAC here is HMAC-SHA256 computed from *pre-keyed states*: the
SHA-256 contexts that have already absorbed ``key ^ ipad`` and
``key ^ opad``.  One MAC is then ``inner.copy()`` → ``update(message)`` →
``outer.copy()`` → ``update(inner digest)`` — the same bytes as
``hmac.new(key, message, sha256).digest()`` without re-deriving the pads
or going through the ``hmac`` object layer on every call.
"""

from __future__ import annotations

import hashlib
import hmac
from functools import lru_cache
from typing import Any, Tuple

_TAG_SIZE = 16
_BLOCK = hashlib.sha256().digest_size
_HASH_BLOCK = hashlib.sha256().block_size
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))
_ZERO8 = (0).to_bytes(8, "big")

# (inner, outer) SHA-256 contexts of one HMAC key; never updated, only copied.
HmacState = Tuple[Any, Any]


class AuthenticationError(Exception):
    """Raised when a ciphertext fails authentication (wrong key or tampered)."""


def _hmac_state(key: bytes) -> HmacState:
    """The pre-keyed ``(inner, outer)`` SHA-256 contexts of HMAC under ``key``."""
    if len(key) > _HASH_BLOCK:
        key = hashlib.sha256(key).digest()
    padded = key.ljust(_HASH_BLOCK, b"\0")
    return (
        hashlib.sha256(padded.translate(_IPAD)),
        hashlib.sha256(padded.translate(_OPAD)),
    )


def hmac_digest(state: HmacState, message: bytes) -> bytes:
    """HMAC-SHA256 of ``message`` under the key ``state`` was built from."""
    inner = state[0].copy()
    inner.update(message)
    outer = state[1].copy()
    outer.update(inner.digest())
    return outer.digest()


@lru_cache(maxsize=1024)
def key_states(key: bytes) -> Tuple[HmacState, HmacState]:
    """Pre-keyed ``(encryption, authentication)`` HMAC states for ``key``.

    The two subkeys are ``HMAC(key, "repro-enc")`` and
    ``HMAC(key, "repro-mac")``; what is kept is each subkey's pre-keyed
    state, which is all :func:`encrypt` and :func:`decrypt` need.  This is
    the module's only cache.  It is bounded at 1024 keys: a key near the
    root of a key tree is unwrapped under by a large share of the group
    within one epoch and stays resident, while the long tail of leaf-level
    keys (each used by a handful of receivers) cycles through.  A cached
    entry is key-equivalent secret material — see docs/security.md.
    """
    state = _hmac_state(key)
    return (
        _hmac_state(hmac_digest(state, b"repro-enc")),
        _hmac_state(hmac_digest(state, b"repro-mac")),
    )


def _xor_keystream(enc_state: HmacState, nonce: bytes, data: bytes) -> bytes:
    """XOR ``data`` with the HMAC counter-mode keystream for ``nonce``."""
    length = len(data)
    if length <= _BLOCK:  # one wrapped key: a single keystream block
        stream = hmac_digest(enc_state, nonce + _ZERO8)
        if length < _BLOCK:
            stream = stream[:length]
    else:
        stream = b"".join(
            hmac_digest(enc_state, nonce + counter.to_bytes(8, "big"))
            for counter in range(-(-length // _BLOCK))
        )[:length]
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    ).to_bytes(length, "big")


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
    enc_state, mac_state = key_states(key)
    ciphertext = _xor_keystream(enc_state, nonce, plaintext)
    return ciphertext + hmac_digest(mac_state, nonce + ciphertext)[:_TAG_SIZE]


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
    enc_state, mac_state = key_states(key)
    expected = hmac_digest(mac_state, nonce + ciphertext)[:_TAG_SIZE]
    if not hmac.compare_digest(tag, expected):
        raise AuthenticationError("authentication tag mismatch")
    return _xor_keystream(enc_state, nonce, ciphertext)
