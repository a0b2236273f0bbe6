"""Cryptographic substrate for the group-rekeying reproduction.

The paper counts rekeying cost in *number of encrypted keys*, so the exact
cipher is irrelevant to the performance results.  We nevertheless implement a
real (toy-grade but honest) keyed cipher so that end-to-end tests can prove
the security properties the key trees are supposed to provide:

* **backward confidentiality** — a newly joined member cannot decrypt
  ciphertext produced under pre-join group keys;
* **forward confidentiality** — a departed member cannot decrypt ciphertext
  produced under post-departure group keys.

Public API
----------
:class:`KeyMaterial`        an identified, versioned symmetric key
:class:`KeyGenerator`       deterministic factory for fresh key material
:class:`EncryptedKey`       a key wrapped (encrypted) under another key
:func:`wrap_key`            encrypt one key under another
:func:`unwrap_key`          recover a wrapped key (authenticated)
:func:`encrypt` / :func:`decrypt`  generic authenticated payload encryption
:exc:`AuthenticationError`  raised when decryption fails authentication
:exc:`SealError`            raised when a payload row's secrets cannot seal
:class:`WrapBatch`          a rekey payload as columns, one row per wrap
:class:`WrapIndex`          row index of a rekey payload by wrapping id
:class:`RekeyMessage`       one rekey operation's payload and its index
"""

from repro.crypto.cipher import AuthenticationError, decrypt, encrypt
from repro.crypto.material import KeyGenerator, KeyMaterial
from repro.crypto.wrap import (
    EncryptedKey,
    RekeyMessage,
    SealError,
    WrapBatch,
    WrapIndex,
    unwrap_key,
    wrap_key,
)

__all__ = [
    "AuthenticationError",
    "EncryptedKey",
    "KeyGenerator",
    "KeyMaterial",
    "RekeyMessage",
    "SealError",
    "WrapBatch",
    "WrapIndex",
    "decrypt",
    "encrypt",
    "unwrap_key",
    "wrap_key",
]
