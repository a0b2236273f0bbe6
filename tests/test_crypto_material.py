"""Unit tests for key material and the deterministic generator."""

import copy
import dataclasses
import hashlib
import hmac
import pickle

import pytest

from repro.crypto.material import KEY_SIZE, KeyGenerator, KeyMaterial, advance_secret
from repro.crypto.wrap import unwrap_key, wrap_key
from repro.server.base import Registration


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

    def test_trusted_constructor_matches_validating_constructor(self):
        secret = bytes(range(32))
        fast = KeyMaterial._trusted("node/1", 4, secret)
        slow = KeyMaterial(key_id="node/1", version=4, secret=secret)
        assert fast == slow
        assert hash(fast) == hash(slow)
        assert fast.handle == ("node/1", 4)

    def test_bytearray_secret_is_copied_to_bytes(self):
        buffer = bytearray(KEY_SIZE)
        key = KeyMaterial("a", 0, buffer)
        assert type(key.secret) is bytes and key.secret == bytes(KEY_SIZE)
        # The caller's buffer no longer reaches the key ...
        buffer[0] = 1
        assert key.secret == bytes(KEY_SIZE)
        # ... the key hashes, and wraps under it work (they raised
        # ``TypeError: unhashable type: 'bytearray'`` from the subkey cache).
        assert hash(key) == hash(KeyMaterial("a", 0, bytes(KEY_SIZE)))
        payload = KeyGenerator(1).generate("dek")
        assert unwrap_key(key, wrap_key(key, payload)) == payload

    def test_frozen_hashable_and_equal_by_value(self):
        key = KeyMaterial("k", 1, b"\x05" * KEY_SIZE)
        twin = KeyMaterial("k", 1, b"\x05" * KEY_SIZE)
        assert key == twin and hash(key) == hash(twin) and {key, twin} == {key}
        assert key != KeyMaterial("k", 2, b"\x05" * KEY_SIZE)
        with pytest.raises(dataclasses.FrozenInstanceError):
            key.version = 2  # type: ignore[misc]


def sample_registration():
    return Registration("m7", KeyGenerator(9).generate("member:m7", version=2), 12.5)


class TestSlottedRecords:
    """``KeyMaterial`` and ``Registration`` are slotted frozen records that
    pickle and copy through their constructors."""

    @pytest.mark.parametrize(
        "record",
        [KeyGenerator(3).generate("node/4", version=6), sample_registration()],
        ids=["key", "registration"],
    )
    def test_pickle_copy_and_deepcopy_round_trip(self, record):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            thawed = pickle.loads(pickle.dumps(record, protocol=protocol))
            assert thawed == record and hash(thawed) == hash(record)
            assert type(thawed) is type(record)
        assert copy.copy(record) == record
        deep = copy.deepcopy(record)
        assert deep == record and hash(deep) == hash(record)

    @pytest.mark.parametrize(
        "bad",
        [
            KeyMaterial._trusted("k", 0, b"\x00" * (KEY_SIZE - 1)),
            KeyMaterial._trusted("k", -1, b"\x00" * KEY_SIZE),
        ],
        ids=["31-byte-secret", "negative-version"],
    )
    def test_unpickling_validates(self, bad):
        # ``_trusted`` skips the checks, so it can build what a tampered
        # pickle would carry; loading goes through the checking constructor.
        for blob in (pickle.dumps(bad), pickle.dumps(Registration("m", bad, 0.0))):
            with pytest.raises(ValueError):
                pickle.loads(blob)

    def test_repr_never_shows_the_secret(self):
        registration = sample_registration()
        key = registration.individual_key
        for text in (repr(key), str(key), repr(registration), str(registration)):
            assert key.secret.hex() not in text
            assert key.secret.hex()[:16] not in text
        assert repr(key) == "KeyMaterial(key_id='member:m7', version=2)"

    def test_no_instance_dict(self):
        registration = sample_registration()
        for record in (registration, registration.individual_key):
            assert not hasattr(record, "__dict__")
            with pytest.raises((AttributeError, TypeError)):
                record.extra = 1  # type: ignore[attr-defined]


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

    def test_secrets_follow_the_counter_formula(self):
        # The one derivation: SHA-256 over the root and the 8-byte counter.
        gen = KeyGenerator(5)
        root = hashlib.sha256(b"repro-keygen:5").digest()
        expected = [
            hashlib.sha256(root + counter.to_bytes(8, "big")).digest()
            for counter in range(1, 4)
        ]
        assert [gen.fresh_secret() for _ in range(3)] == expected
        assert gen.state() == {"root": root.hex(), "counter": 3}

    @pytest.mark.parametrize("count", [0, 1, 7])
    def test_fresh_secrets_is_that_many_fresh_secret_calls(self, count):
        one, many = KeyGenerator(11), KeyGenerator(11)
        for gen in (one, many):
            gen.fresh_secret()  # start mid-stream
        drawn = many.fresh_secrets(count)
        assert many.state() == one.state() | {"counter": 1 + count}
        assert list(drawn) == [one.fresh_secret() for _ in range(count)]
        assert many.state() == one.state()
        assert many.fresh_secret() == one.fresh_secret()

    def test_fresh_secrets_refuses_a_negative_count(self):
        gen = KeyGenerator(0)
        with pytest.raises(ValueError):
            gen.fresh_secrets(-1)
        assert gen.state()["counter"] == 0


class TestOneWayAdvance:
    def test_advance_secret_is_the_hmac_step(self):
        secret = bytes(range(KEY_SIZE))
        step = hmac.new(secret, b"repro-advance", hashlib.sha256).digest()
        assert advance_secret(secret) == step

    def test_key_advance_bumps_the_version_over_that_step(self):
        key = KeyGenerator(4).generate("node/2", version=5)
        advanced = key.advance()
        assert advanced.handle == ("node/2", 6)
        assert advanced.secret == advance_secret(key.secret) != key.secret
