"""Unit tests for the authenticated keystream cipher."""

import hashlib
import hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.cipher import (
    AuthenticationError,
    _subkeys,
    decrypt,
    encrypt,
    encrypt_column,
)
from repro.crypto.material import KeyMaterial
from repro.crypto.wrap import unwrap_key, wrap_key

KEY = bytes(range(32))
KEY2 = bytes(range(1, 33))
NONCE = b"nonce-1"


class TestRoundtrip:
    def test_roundtrip_short(self):
        blob = encrypt(KEY, NONCE, b"hello")
        assert decrypt(KEY, NONCE, blob) == b"hello"

    def test_roundtrip_empty(self):
        blob = encrypt(KEY, NONCE, b"")
        assert decrypt(KEY, NONCE, blob) == b""

    def test_roundtrip_long(self):
        payload = bytes(i % 256 for i in range(10_000))
        blob = encrypt(KEY, NONCE, payload)
        assert decrypt(KEY, NONCE, blob) == payload

    def test_ciphertext_differs_from_plaintext(self):
        payload = b"secret material"
        blob = encrypt(KEY, NONCE, payload)
        assert payload not in blob

    def test_deterministic_given_key_and_nonce(self):
        assert encrypt(KEY, NONCE, b"x") == encrypt(KEY, NONCE, b"x")

    def test_nonce_changes_ciphertext(self):
        assert encrypt(KEY, b"n1", b"x") != encrypt(KEY, b"n2", b"x")

    def test_key_changes_ciphertext(self):
        assert encrypt(KEY, NONCE, b"x") != encrypt(KEY2, NONCE, b"x")


class TestAuthentication:
    def test_wrong_key_rejected(self):
        blob = encrypt(KEY, NONCE, b"payload")
        with pytest.raises(AuthenticationError):
            decrypt(KEY2, NONCE, blob)

    def test_wrong_nonce_rejected(self):
        blob = encrypt(KEY, NONCE, b"payload")
        with pytest.raises(AuthenticationError):
            decrypt(KEY, b"other", blob)

    def test_flipped_ciphertext_bit_rejected(self):
        blob = bytearray(encrypt(KEY, NONCE, b"payload"))
        blob[0] ^= 0x01
        with pytest.raises(AuthenticationError):
            decrypt(KEY, NONCE, bytes(blob))

    def test_flipped_tag_bit_rejected(self):
        blob = bytearray(encrypt(KEY, NONCE, b"payload"))
        blob[-1] ^= 0x01
        with pytest.raises(AuthenticationError):
            decrypt(KEY, NONCE, bytes(blob))

    def test_truncated_blob_rejected(self):
        with pytest.raises(AuthenticationError):
            decrypt(KEY, NONCE, b"short")


class TestValidation:
    def test_encrypt_rejects_short_key(self):
        with pytest.raises(ValueError):
            encrypt(b"tiny", NONCE, b"x")

    @pytest.mark.parametrize(
        "keys, plaintexts",
        [([KEY[:16]], [KEY]), ([KEY + b"x"], [KEY]), ([KEY], [KEY[:31]]), ([KEY], [])],
        ids=["short-key", "long-key", "short-plaintext", "ragged"],
    )
    def test_the_column_seal_takes_only_one_block_rows(self, keys, plaintexts):
        with pytest.raises(ValueError):
            encrypt_column(keys, [NONCE], plaintexts)

    def test_decrypt_rejects_short_key(self):
        with pytest.raises(ValueError):
            decrypt(b"tiny", NONCE, b"x" * 32)


def reference_encrypt(key: bytes, nonce: bytes, plaintext: bytes) -> bytes:
    """The construction written straight from ``hmac.new`` and a per-byte
    XOR — what :func:`encrypt` must equal byte for byte."""
    enc_key = hmac.new(key, b"repro-enc", hashlib.sha256).digest()
    mac_key = hmac.new(key, b"repro-mac", hashlib.sha256).digest()
    stream = bytearray()
    counter = 0
    while len(stream) < len(plaintext):
        block = nonce + counter.to_bytes(8, "big")
        stream.extend(hmac.new(enc_key, block, hashlib.sha256).digest())
        counter += 1
    ciphertext = bytes(p ^ s for p, s in zip(plaintext, stream))
    tag = hmac.new(mac_key, nonce + ciphertext, hashlib.sha256).digest()[:16]
    return ciphertext + tag


# Lengths 0-100 cover the single-block path (<= 32 bytes, exactly 32 being
# one wrapped key) and the multi-block path; keys longer than SHA-256's
# 64-byte block exercise HMAC's hash-the-key rule.
KEYS = st.binary(min_size=16, max_size=80)
NONCES = st.binary(max_size=48)
PLAINTEXTS = st.binary(max_size=100)


class TestReferenceOracle:
    @settings(max_examples=300, deadline=None)
    @given(key=KEYS, nonce=NONCES, plaintext=PLAINTEXTS)
    def test_encrypt_equals_hmac_reference(self, key, nonce, plaintext):
        blob = encrypt(key, nonce, plaintext)
        assert blob == reference_encrypt(key, nonce, plaintext)
        assert decrypt(key, nonce, blob) == plaintext

    @settings(max_examples=300, deadline=None)
    @given(key=KEYS, nonce=NONCES, plaintext=PLAINTEXTS, data=st.data())
    def test_open_accepts_only_the_reference_blob(self, key, nonce, plaintext, data):
        blob = reference_encrypt(key, nonce, plaintext)
        assert decrypt(key, nonce, blob) == plaintext
        # A different HMAC key: the first byte flipped (a key over 64 bytes
        # is hashed first, so any flip changes it).
        wrong = bytes([key[0] ^ 0x01]) + key[1:]
        with pytest.raises(AuthenticationError):
            decrypt(wrong, nonce, blob)
        bit = data.draw(st.integers(min_value=0, max_value=8 * len(blob) - 1))
        tampered = bytearray(blob)
        tampered[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(AuthenticationError):
            decrypt(key, nonce, bytes(tampered))
        cut = data.draw(st.integers(min_value=1, max_value=len(blob)))
        with pytest.raises(AuthenticationError):
            decrypt(key, nonce, blob[:-cut])

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.binary(min_size=32, max_size=32),
                NONCES,
                st.binary(min_size=32, max_size=32),
            ),
            max_size=20,
        )
    )
    def test_the_column_seal_equals_hmac_reference(self, rows):
        """The column core is the reference, row by row, over what a
        payload holds: 32-byte keys and 32-byte plaintexts."""
        keys, nonces, plaintexts = ([row[i] for row in rows] for i in range(3))
        assert encrypt_column(keys, nonces, plaintexts) == [
            reference_encrypt(*row) for row in rows
        ]

    @pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 64, 65, 100])
    def test_block_boundaries(self, length):
        plaintext = bytes(range(length))
        blob = encrypt(KEY, NONCE, plaintext)
        assert blob == reference_encrypt(KEY, NONCE, plaintext)
        assert decrypt(KEY, NONCE, blob) == plaintext


@pytest.mark.parametrize("length", [32, 75], ids=["one-block", "multi-block"])
class TestRejectionOnBothPaths:
    def test_wrong_key(self, length):
        blob = encrypt(KEY, NONCE, bytes(length))
        with pytest.raises(AuthenticationError):
            decrypt(KEY2, NONCE, blob)

    def test_every_flipped_bit(self, length):
        blob = encrypt(KEY, NONCE, bytes(length))
        for position in range(len(blob)):
            tampered = bytearray(blob)
            tampered[position] ^= 0x80
            with pytest.raises(AuthenticationError):
                decrypt(KEY, NONCE, bytes(tampered))

    def test_truncated(self, length):
        blob = encrypt(KEY, NONCE, bytes(length))
        for cut in (1, 16, 17, len(blob) - 3):
            with pytest.raises(AuthenticationError):
                decrypt(KEY, NONCE, blob[:-cut])


class TestSubkeyCache:
    """Seal and open share one bounded cache of derived subkeys."""

    def test_seal_leaves_the_derivation_for_the_next_open(self):
        _subkeys.cache_clear()
        blob = encrypt(KEY, NONCE, bytes(32))
        assert _subkeys.cache_info()[:2] == (0, 1)  # hits, misses
        assert decrypt(KEY, NONCE, blob) == bytes(32)
        assert _subkeys.cache_info()[:2] == (1, 1)

    def test_a_wrap_leaves_the_derivation_for_its_unwrap(self):
        wrapping = KeyMaterial("node:7", 3, bytes(range(32)))
        payload = KeyMaterial("node:1", 4, bytes(range(32, 64)))
        _subkeys.cache_clear()
        wrapped = wrap_key(wrapping, payload)
        assert unwrap_key(wrapping, wrapped) == payload
        assert _subkeys.cache_info()[:2] == (1, 1)

    def test_open_after_eviction(self):
        maxsize = _subkeys.cache_info().maxsize
        keys = [index.to_bytes(4, "big") * 8 for index in range(maxsize + 8)]
        _subkeys.cache_clear()
        blobs = [encrypt(key, NONCE, key) for key in keys]
        assert _subkeys.cache_info().currsize == maxsize
        # The oldest key's subkeys were evicted: the open derives them again.
        assert decrypt(keys[0], NONCE, blobs[0]) == keys[0]
        assert _subkeys.cache_info()[:2] == (0, len(keys) + 1)
        with pytest.raises(AuthenticationError):
            decrypt(keys[1], NONCE, blobs[0])
