"""Unit tests for key wrapping."""

import pytest

import repro.crypto.wrap as wrap_module
from repro.crypto.cipher import AuthenticationError, encrypt
from repro.crypto.material import KeyGenerator
from repro.crypto.wrap import EncryptedKey, unwrap_key, wrap_key


@pytest.fixture
def keys():
    gen = KeyGenerator(9)
    return gen.generate("wrapping"), gen.generate("payload")


class TestWrapUnwrap:
    def test_roundtrip(self, keys):
        wrapping, payload = keys
        recovered = unwrap_key(wrapping, wrap_key(wrapping, payload))
        assert recovered == payload

    def test_encrypted_key_records_both_identities(self, keys):
        wrapping, payload = keys
        ek = wrap_key(wrapping, payload)
        assert ek.wrapping_handle == wrapping.handle
        assert ek.payload_handle == payload.handle

    def test_payload_secret_not_in_ciphertext(self, keys):
        wrapping, payload = keys
        ek = wrap_key(wrapping, payload)
        assert payload.secret not in ek.ciphertext

    def test_wrong_wrapping_key_id_raises_value_error(self, keys):
        wrapping, payload = keys
        other = KeyGenerator(10).generate("other")
        ek = wrap_key(wrapping, payload)
        with pytest.raises(ValueError):
            unwrap_key(other, ek)

    def test_wrong_wrapping_version_raises_value_error(self, keys):
        wrapping, payload = keys
        gen = KeyGenerator(9)
        newer = gen.rekey(wrapping)
        ek = wrap_key(wrapping, payload)
        with pytest.raises(ValueError):
            unwrap_key(newer, ek)

    def test_same_id_different_secret_fails_authentication(self, keys):
        wrapping, payload = keys
        ek = wrap_key(wrapping, payload)
        impostor = KeyGenerator(99).generate("wrapping")  # same id, version 0
        with pytest.raises(AuthenticationError):
            unwrap_key(impostor, ek)

    def test_size_constant_matches_reality(self, keys):
        wrapping, payload = keys
        ek = wrap_key(wrapping, payload)
        assert len(ek.ciphertext) == EncryptedKey.SIZE_BYTES

    def test_distinct_payload_versions_produce_distinct_ciphertexts(self, keys):
        wrapping, payload = keys
        gen = KeyGenerator(9)
        newer = gen.rekey(payload)
        assert (
            wrap_key(wrapping, payload).ciphertext
            != wrap_key(wrapping, newer).ciphertext
        )


def forged_record(wrapping, payload_id, payload_version, secret):
    """A wire record that authenticates under ``wrapping`` but carries
    what no honest server emits (as a decoder could hand to a receiver)."""
    nonce = (
        f"{wrapping.key_id}#{wrapping.version}->{payload_id}#{payload_version}"
    ).encode("utf-8")
    return EncryptedKey(
        wrapping_id=wrapping.key_id,
        wrapping_version=wrapping.version,
        payload_id=payload_id,
        payload_version=payload_version,
        ciphertext=encrypt(wrapping.secret, nonce, secret),
    )


class TestUnwrapValidatesTheDecodedRecord:
    def test_authentic_record_unwraps(self, keys):
        wrapping, payload = keys
        record = forged_record(wrapping, "payload", 0, payload.secret)
        assert unwrap_key(wrapping, record) == payload

    def test_negative_payload_version_raises_value_error(self, keys):
        wrapping, payload = keys
        record = forged_record(wrapping, "payload", -1, payload.secret)
        with pytest.raises(ValueError, match="non-negative"):
            unwrap_key(wrapping, record)

    @pytest.mark.parametrize("length", [0, 16, 31, 33, 64])
    def test_wrong_size_payload_raises_value_error(self, keys, length):
        wrapping, __ = keys
        record = forged_record(wrapping, "payload", 0, bytes(length))
        with pytest.raises(ValueError, match="32 bytes"):
            unwrap_key(wrapping, record)

    def test_handle_mismatch_raises_before_any_crypto(self, keys, monkeypatch):
        wrapping, payload = keys
        ek = wrap_key(wrapping, payload)

        def no_crypto(*args):
            raise AssertionError("decrypt ran before the handle check")

        monkeypatch.setattr(wrap_module, "decrypt", no_crypto)
        other = KeyGenerator(10).generate("other")
        with pytest.raises(ValueError, match="mismatch"):
            unwrap_key(other, ek)
        with pytest.raises(ValueError, match="mismatch"):
            unwrap_key(KeyGenerator(9).rekey(wrapping), ek)
