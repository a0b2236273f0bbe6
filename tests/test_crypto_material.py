"""Unit tests for key material and the deterministic generator."""

import pytest

from repro.crypto.material import KEY_SIZE, KeyGenerator, KeyMaterial


class TestKeyMaterial:
    def test_requires_exact_secret_length(self):
        with pytest.raises(ValueError):
            KeyMaterial("k", 0, b"short")

    def test_requires_bytes_secret(self):
        with pytest.raises(TypeError):
            KeyMaterial("k", 0, "x" * KEY_SIZE)  # type: ignore[arg-type]

    def test_rejects_negative_version(self):
        with pytest.raises(ValueError):
            KeyMaterial("k", -1, b"\x00" * KEY_SIZE)

    def test_handle_is_id_and_version(self):
        key = KeyMaterial("k", 3, b"\x00" * KEY_SIZE)
        assert key.handle == ("k", 3)

    def test_fingerprint_is_stable_and_short(self):
        key = KeyMaterial("k", 0, b"\x01" * KEY_SIZE)
        assert key.fingerprint() == key.fingerprint()
        assert len(key.fingerprint()) == 16

    def test_fingerprint_depends_on_secret(self):
        a = KeyMaterial("k", 0, b"\x01" * KEY_SIZE)
        b = KeyMaterial("k", 0, b"\x02" * KEY_SIZE)
        assert a.fingerprint() != b.fingerprint()

    def test_derive_is_one_way_and_labeled(self):
        key = KeyMaterial("k", 2, b"\x03" * KEY_SIZE)
        child = key.derive("blind")
        assert child.secret != key.secret
        assert child.key_id == "k/blind"
        assert child.version == 2
        assert key.derive("blind").secret == child.secret
        assert key.derive("other").secret != child.secret

    def test_trusted_constructor_matches_validating_constructor(self):
        secret = bytes(range(32))
        fast = KeyMaterial._trusted("node/1", 4, secret)
        slow = KeyMaterial(key_id="node/1", version=4, secret=secret)
        assert fast == slow
        assert hash(fast) == hash(slow)
        assert fast.handle == ("node/1", 4)


class TestKeyGenerator:
    def test_same_seed_same_sequence(self):
        a, b = KeyGenerator(7), KeyGenerator(7)
        assert [a.fresh_secret() for _ in range(5)] == [
            b.fresh_secret() for _ in range(5)
        ]

    def test_different_seeds_differ(self):
        assert KeyGenerator(1).fresh_secret() != KeyGenerator(2).fresh_secret()

    def test_fresh_secrets_never_repeat(self):
        gen = KeyGenerator(0)
        secrets = {gen.fresh_secret() for _ in range(100)}
        assert len(secrets) == 100

    def test_generate_sets_identity(self):
        key = KeyGenerator(0).generate("node-1", version=4)
        assert key.key_id == "node-1"
        assert key.version == 4

    def test_rekey_bumps_version_and_changes_secret(self):
        gen = KeyGenerator(0)
        old = gen.generate("n")
        new = gen.rekey(old)
        assert new.key_id == old.key_id
        assert new.version == old.version + 1
        assert new.secret != old.secret
