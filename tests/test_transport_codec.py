"""Unit tests for the wire codec."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.material import KeyGenerator
from repro.crypto.wrap import RekeyMessage, wrap_key
from repro.members.member import Member
from repro.testing.lkh import LkhRekeyer
from repro.testing.tree import KeyTree
from repro.transport.codec import (
    CodecError,
    decode_encrypted_key,
    decode_rekey_message,
    encode_encrypted_key,
    encode_rekey_message,
    wire_size,
)

from tests.helpers import populate


@pytest.fixture
def sample_key():
    gen = KeyGenerator(41)
    return wrap_key(gen.generate("wrapping", version=3), gen.generate("payload", version=7))


@pytest.fixture
def sample_message(keygen):
    tree = KeyTree(degree=4, keygen=keygen)
    rekeyer = LkhRekeyer(tree)
    populate(rekeyer, 32)
    return tree, rekeyer.rekey_batch(
        joins=[("late", None)], departures=["m3", "m9"]
    )


class TestEncryptedKeyCodec:
    def test_roundtrip(self, sample_key):
        decoded, offset = decode_encrypted_key(encode_encrypted_key(sample_key))
        assert decoded == sample_key
        assert offset == len(encode_encrypted_key(sample_key))

    def test_concatenated_records_parse_sequentially(self, sample_key):
        blob = encode_encrypted_key(sample_key) * 3
        offset = 0
        for __ in range(3):
            decoded, offset = decode_encrypted_key(blob, offset)
            assert decoded == sample_key
        assert offset == len(blob)

    def test_truncation_detected(self, sample_key):
        blob = encode_encrypted_key(sample_key)
        for cut in (1, 5, len(blob) // 2, len(blob) - 1):
            with pytest.raises(CodecError):
                decode_encrypted_key(blob[:cut])


class TestMessageCodec:
    def test_roundtrip_preserves_everything(self, sample_message):
        __, message = sample_message
        decoded = decode_rekey_message(encode_rekey_message(message))
        assert decoded.group == message.group
        assert decoded.epoch == message.epoch
        assert decoded.joined == message.joined
        assert decoded.departed == message.departed
        assert decoded.encrypted_keys == message.encrypted_keys
        assert set(decoded.updated) == set(message.updated)

    def test_decoded_message_still_rekeys_members(self, sample_message):
        """The parse output is functionally a rekey message: a survivor can
        absorb it and reach the new root."""
        tree, message = sample_message
        decoded = decode_rekey_message(encode_rekey_message(message))
        survivor = Member("m0", tree.leaf_of("m0").key)
        for node in tree.path_of("m0"):
            survivor.install(node.key)
        survivor.process_rekey(decoded)
        root = tree.root.key
        assert survivor.holds(root.key_id, root.version)

    def test_empty_message_roundtrip(self):
        message = RekeyMessage(group="g", epoch=5)
        decoded = decode_rekey_message(encode_rekey_message(message))
        assert decoded.epoch == 5
        assert decoded.encrypted_keys == []

    def test_bad_magic_rejected(self, sample_message):
        __, message = sample_message
        blob = bytearray(encode_rekey_message(message))
        blob[0] ^= 0xFF
        with pytest.raises(CodecError):
            decode_rekey_message(bytes(blob))

    def test_trailing_bytes_rejected(self, sample_message):
        __, message = sample_message
        with pytest.raises(CodecError):
            decode_rekey_message(encode_rekey_message(message) + b"x")

    def test_truncation_rejected(self, sample_message):
        __, message = sample_message
        blob = encode_rekey_message(message)
        with pytest.raises(CodecError):
            decode_rekey_message(blob[: len(blob) - 3])

    def test_wire_size_scales_with_cost(self, sample_message):
        """One encrypted key is ~70-90 wire bytes; the paper's #keys metric
        maps linearly onto bytes."""
        __, message = sample_message
        size = wire_size(message)
        per_key = (size - wire_size(RekeyMessage(group="t/root", epoch=1))) / message.cost
        assert 60 <= per_key <= 120


def _real_messages():
    """Encoded rekey broadcasts from real trees: mixed churn, a join-only
    batch refreshed one-way (``advanced`` entries, non-ASCII ids) and an
    empty one."""
    blobs = []
    for seed, size in ((5, 24), (6, 70)):
        tree = KeyTree(degree=3, keygen=KeyGenerator(seed))
        rekeyer = LkhRekeyer(tree)
        populate(rekeyer, size)
        blobs.append(
            encode_rekey_message(
                rekeyer.rekey_batch(
                    joins=[("zoë", None), ("late", None)], departures=["m1", "m7"]
                )
            )
        )
        blobs.append(
            encode_rekey_message(
                rekeyer.rekey_batch(joins=[("später", None)], join_refresh="owf")
            )
        )
    blobs.append(encode_rekey_message(RekeyMessage(group="g", epoch=5)))
    assert any(decode_rekey_message(blob).advanced for blob in blobs)
    return blobs


def _length_fields(blob):
    """``(offset, size)`` of every length and count field of an encoded
    message, walked straight from the format in the codec's docstring."""
    fields = []
    offset = 4

    def take(size):
        nonlocal offset
        fields.append((offset, size))
        value = int.from_bytes(blob[offset : offset + size], "big")
        offset += size
        return value

    def skip_string():
        nonlocal offset
        length = take(2)
        offset += length

    skip_string()  # group
    offset += 8  # epoch
    for __ in range(2):  # joined, departed
        for __ in range(take(2)):
            skip_string()
    for __ in range(take(4)):  # advanced
        skip_string()
        offset += 4
    for __ in range(take(4)):  # key records
        skip_string()
        offset += 4
        skip_string()
        offset += 4
        skip_string()  # the ciphertext is length-prefixed like a string
    assert offset == len(blob)
    return fields


REAL_MESSAGES = _real_messages()
#: The buffer types a datagram may arrive in.
BYTES_LIKE = (bytes, bytearray, memoryview)


def _rejected_or_canonical(blob, buffer=bytes):
    """The one property: a mutated message, handed over as ``buffer``,
    is rejected with the codec's own error, or it parses — into ``str``
    ids and ``bytes`` ciphertexts, hashable records — to a message that
    encodes back to exactly those bytes.  Anything else raised here fails
    the test."""
    try:
        message = decode_rekey_message(buffer(blob))
    except CodecError:
        return "rejected"
    assert encode_rekey_message(message) == blob
    for ek in message.encrypted_keys:
        assert type(ek.wrapping_id) is type(ek.payload_id) is str
        assert type(ek.ciphertext) is bytes
        hash(ek)
    return "parsed"


@st.composite
def mutated_messages(draw):
    blob = draw(st.sampled_from(REAL_MESSAGES))
    kind = draw(st.sampled_from(["truncate", "flip", "rewrite"]))
    if kind == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    mutated = bytearray(blob)
    if kind == "flip":
        mutated[draw(st.integers(0, len(blob) - 1))] ^= 1 << draw(st.integers(0, 7))
    else:
        offset, size = draw(st.sampled_from(_length_fields(blob)))
        lie = draw(
            st.one_of(
                st.integers(0, 300),  # nearby: off-by-a-few lengths
                st.integers(0, 256**size - 1),
            )
        )
        mutated[offset : offset + size] = lie.to_bytes(size, "big")
    return bytes(mutated)


class TestMalformedInput:
    """Reject, never mis-parse — and only ever with :class:`CodecError`."""

    @settings(max_examples=1500, deadline=None)
    @given(mutated_messages(), st.sampled_from(BYTES_LIKE))
    def test_mutations_are_rejected_or_canonical(self, blob, buffer):
        _rejected_or_canonical(blob, buffer)

    def test_every_truncation_is_rejected(self):
        for buffer in BYTES_LIKE:
            for blob in REAL_MESSAGES:
                for cut in range(len(blob)):
                    assert _rejected_or_canonical(blob[:cut], buffer) == "rejected", cut

    def test_any_bytes_like_input_parses_alike(self):
        """A ``memoryview`` used to escape as ``AttributeError``, and a
        ``bytearray`` parsed into records whose ciphertext could not be
        hashed."""
        for blob in REAL_MESSAGES:
            expected = decode_rekey_message(blob)
            for buffer in BYTES_LIKE:
                assert _rejected_or_canonical(blob, buffer) == "parsed"
                message = decode_rekey_message(buffer(blob))
                assert message == expected
                assert set(message.encrypted_keys) == set(expected.encrypted_keys)
        key = decode_rekey_message(REAL_MESSAGES[0]).encrypted_keys[0]
        for buffer in BYTES_LIKE:
            decoded, __ = decode_encrypted_key(buffer(encode_encrypted_key(key)))
            assert decoded == key and type(decoded.ciphertext) is bytes
        for not_bytes in ("RKM1", 12, None, [1, 2]):
            with pytest.raises(CodecError):
                decode_rekey_message(not_bytes)

    def test_bit_flipped_id_is_rejected_not_leaked(self):
        """An id byte with its top bit flipped is not UTF-8: that used to
        escape as ``UnicodeDecodeError``."""
        blob = bytearray(REAL_MESSAGES[0])
        blob[4 + 2] ^= 0x80  # first byte of the group name
        with pytest.raises(CodecError):
            decode_rekey_message(bytes(blob))
        first_key = decode_rekey_message(REAL_MESSAGES[0]).encrypted_keys[0]
        key = bytearray(encode_encrypted_key(first_key))
        key[2] ^= 0x80  # first byte of the wrapping id
        with pytest.raises(CodecError):
            decode_encrypted_key(bytes(key))

    def test_flipped_bits_that_still_parse_are_seen(self):
        """The property is not vacuous: a flipped ciphertext bit parses."""
        blob = bytearray(REAL_MESSAGES[0])
        blob[-1] ^= 1
        assert _rejected_or_canonical(bytes(blob)) == "parsed"

    @pytest.mark.parametrize("version", [2**32, 2**40, -1])
    def test_unencodable_version_raises_codec_error(self, sample_key, version):
        """These used to escape as ``struct.error``."""
        for field in ("wrapping_version", "payload_version"):
            with pytest.raises(CodecError):
                encode_encrypted_key(dataclasses.replace(sample_key, **{field: version}))
        message = RekeyMessage(
            group="g", epoch=1,
            encrypted_keys=[dataclasses.replace(sample_key, payload_version=version)],
        )
        with pytest.raises(CodecError):
            encode_rekey_message(message)
        with pytest.raises(CodecError):
            encode_rekey_message(
                RekeyMessage(group="g", epoch=1, advanced=[("k", version)])
            )

    def test_unencodable_epoch_raises_codec_error(self):
        with pytest.raises(CodecError):
            encode_rekey_message(RekeyMessage(group="g", epoch=2**64))
