"""Wire encoding for rekey payloads.

Everything the transports move around — :class:`EncryptedKey` records and
whole :class:`RekeyMessage` batches — can be serialized to a compact,
self-describing binary format and parsed back.  The simulator never needs
this (it passes objects), but a deployment does, and the tests use it to
pin down the actual wire sizes the cost metric abstracts as "one key".

Format (all integers big-endian):

``EncryptedKey``::

    u16 len(wrapping_id) | wrapping_id utf-8
    u32 wrapping_version
    u16 len(payload_id)  | payload_id utf-8
    u32 payload_version
    u16 len(ciphertext)  | ciphertext

``RekeyMessage``::

    4s  magic b"RKM1"
    u16 len(group) | group utf-8
    u64 epoch
    u16 joined count   | per entry: u16 len | member_id utf-8
    u16 departed count | per entry: u16 len | member_id utf-8
    u32 advanced count | per entry: u16 len | key_id utf-8 | u32 version
    u32 key count      | EncryptedKey records back to back

(The ``updated`` handle list is derivable from the key records and is not
transmitted.)

Key records are encoded and decoded a whole
:class:`~repro.crypto.wrap.WrapBatch` at a time, column by column:
encoding joins pieces made by C-level maps over the columns, and
decoding is one scan of the three length fields of each record followed
by one ``struct`` unpack of every record.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

from repro.crypto.wrap import EncryptedKey, RekeyMessage, WrapBatch

_MAGIC = b"RKM1"
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U32_U16 = struct.Struct(">IH")
_U64 = struct.Struct(">Q")


class CodecError(Exception):
    """Raised on malformed wire data."""


class _Pieces(dict):
    """Field length -> ``struct`` format piece, made once per length."""

    def __init__(self, template: str) -> None:
        super().__init__()
        self.template = template

    def __missing__(self, length: int) -> str:
        piece = self[length] = self.template % length
        return piece


def _pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise CodecError(f"string too long ({len(raw)} bytes)")
    return _U16.pack(len(raw)) + raw


def _as_bytes(data) -> bytes:
    """Any bytes-like input as ``bytes`` (ids and ciphertexts come out as
    ``str`` and ``bytes`` whatever the buffer was)."""
    if isinstance(data, bytes):
        return data
    try:
        return memoryview(data).tobytes()
    except TypeError:
        kind = type(data).__name__
        raise CodecError(f"expected bytes-like data, got {kind}") from None


def _record_parts(keys: WrapBatch) -> List[bytes]:
    """The key records of ``keys``, as pieces to join, in one pass over
    its columns."""
    wrapping_ids = list(map(str.encode, keys.wrapping_ids))
    payload_ids = list(map(str.encode, keys.payload_ids))
    ciphertexts = keys.ciphertexts()
    for column in (wrapping_ids, payload_ids, ciphertexts):
        if max(map(len, column), default=0) > 0xFFFF:
            raise CodecError("string or ciphertext too long")
    parts: List[bytes] = [b""] * (6 * len(ciphertexts))
    parts[0::6] = map(_U16.pack, map(len, wrapping_ids))
    parts[1::6] = wrapping_ids
    parts[3::6] = payload_ids
    parts[5::6] = ciphertexts
    try:
        parts[2::6] = map(_U32_U16.pack, keys.wrapping_versions, map(len, payload_ids))
        parts[4::6] = map(_U32_U16.pack, keys.payload_versions, map(len, ciphertexts))
    except struct.error as error:
        raise CodecError(f"key version out of range: {error}") from None
    return parts


def _decode_records(data: bytes, offset: int, count: int) -> Tuple[WrapBatch, int]:
    """Parse ``count`` key records at ``offset``; ``(batch, next_offset)``.

    One scan reads the three length fields of each record into a format
    for all of them, and one unpack reads every field.  A record is
    ``H{id}s I H{id}s I H{ciphertext}s``: its first length-prefixed field,
    then twice a u32 version and the next one."""
    first, following = _Pieces("H%ds"), _Pieces("IH%ds")
    pieces = [">"]
    take = pieces.append
    end = offset
    try:
        for __ in range(count):
            size = data[end] << 8 | data[end + 1]
            take(first[size])
            end += size + 6  # wrapping id, its length and the u32 version
            size = data[end] << 8 | data[end + 1]
            take(following[size])
            end += size + 6  # payload id, its length and the u32 version
            size = data[end] << 8 | data[end + 1]
            take(following[size])
            end += size + 2  # ciphertext and its length
    except IndexError:
        raise CodecError("truncated key record") from None
    if end > len(data):
        raise CodecError("truncated key record")
    # A compiled Struct of its own: the module-level cache would keep one
    # per payload alive.
    fields = struct.Struct("".join(pieces)).unpack_from(data, offset)
    try:
        wrapping_ids = list(map(bytes.decode, fields[1::8]))
        payload_ids = list(map(bytes.decode, fields[4::8]))
    except UnicodeDecodeError as error:
        raise CodecError(f"string is not utf-8: {error}") from None
    batch = WrapBatch.from_columns(
        wrapping_ids, list(fields[2::8]), payload_ids, list(fields[5::8]),
        list(fields[7::8]),
    )
    return batch, end


def encode_encrypted_key(key: EncryptedKey) -> bytes:
    """Serialize one encrypted key."""
    return b"".join(_record_parts(WrapBatch([key])))


def decode_encrypted_key(data: bytes, offset: int = 0) -> Tuple[EncryptedKey, int]:
    """Parse one encrypted key; returns ``(key, next_offset)``."""
    batch, offset = _decode_records(_as_bytes(data), offset, 1)
    return batch[0], offset


def _unpack(layout: struct.Struct, data: bytes, offset: int, what: str):
    """One integer field at ``offset``; returns ``(value, next_offset)``."""
    end = offset + layout.size
    if end > len(data):
        raise CodecError(f"truncated {what}")
    return layout.unpack_from(data, offset)[0], end


def _unpack_str(data: bytes, offset: int) -> Tuple[str, int]:
    length, offset = _unpack(_U16, data, offset, "string length")
    if offset + length > len(data):
        raise CodecError("truncated string body")
    try:
        return data[offset : offset + length].decode("utf-8"), offset + length
    except UnicodeDecodeError as error:
        raise CodecError(f"string is not utf-8: {error}") from None


def encode_rekey_message(message: RekeyMessage) -> bytes:
    """Serialize a whole rekey broadcast."""
    try:
        epoch = _U64.pack(message.epoch)
    except struct.error as error:
        raise CodecError(f"epoch out of range: {error}") from None
    parts: List[bytes] = [_MAGIC, _pack_str(message.group), epoch]
    for roster in (message.joined, message.departed):
        if len(roster) > 0xFFFF:
            raise CodecError("roster too long")
        parts.append(_U16.pack(len(roster)))
        parts.extend(map(_pack_str, roster))
    parts.append(_U32.pack(len(message.advanced)))
    try:
        for key_id, version in message.advanced:
            parts += (_pack_str(key_id), _U32.pack(version))
    except struct.error as error:
        raise CodecError(f"advanced version out of range: {error}") from None
    keys = message.encrypted_keys
    if not isinstance(keys, WrapBatch):
        keys = WrapBatch(keys)
    parts.append(_U32.pack(len(keys)))
    parts += _record_parts(keys)
    return b"".join(parts)


def decode_rekey_message(data: bytes) -> RekeyMessage:
    """Parse a rekey broadcast from any bytes-like object; raises
    :class:`CodecError` on bad input."""
    data = _as_bytes(data)
    if data[:4] != _MAGIC:
        raise CodecError("bad magic")
    group, offset = _unpack_str(data, 4)
    epoch, offset = _unpack(_U64, data, offset, "epoch")
    rosters: List[List[str]] = []
    for __ in range(2):
        count, offset = _unpack(_U16, data, offset, "roster count")
        roster = []
        for __ in range(count):
            member_id, offset = _unpack_str(data, offset)
            roster.append(member_id)
        rosters.append(roster)
    advanced_count, offset = _unpack(_U32, data, offset, "advanced count")
    advanced = []
    for __ in range(advanced_count):
        key_id, offset = _unpack_str(data, offset)
        version, offset = _unpack(_U32, data, offset, "advanced version")
        advanced.append((key_id, version))
    key_count, offset = _unpack(_U32, data, offset, "key count")
    keys, offset = _decode_records(data, offset, key_count)
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes")
    message = RekeyMessage(
        group=group,
        epoch=epoch,
        encrypted_keys=keys,
        advanced=advanced,
        joined=rosters[0],
        departed=rosters[1],
    )
    message.updated = sorted(set(zip(keys.payload_ids, keys.payload_versions)))
    return message


def wire_size(message: RekeyMessage) -> int:
    """Exact wire bytes of the encoded message."""
    return len(encode_rekey_message(message))
