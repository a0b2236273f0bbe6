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
"""

from __future__ import annotations

import struct
from typing import List, Tuple

from repro.crypto.wrap import EncryptedKey
from repro.keytree.lkh import RekeyMessage

_MAGIC = b"RKM1"


class CodecError(Exception):
    """Raised on malformed wire data."""


def _pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise CodecError(f"string too long ({len(raw)} bytes)")
    return struct.pack(">H", len(raw)) + raw


def _unpack_str(data: bytes, offset: int) -> Tuple[str, int]:
    if offset + 2 > len(data):
        raise CodecError("truncated string length")
    (length,) = struct.unpack_from(">H", data, offset)
    offset += 2
    if offset + length > len(data):
        raise CodecError("truncated string body")
    try:
        return data[offset : offset + length].decode("utf-8"), offset + length
    except UnicodeDecodeError as error:
        raise CodecError(f"string is not utf-8: {error}") from None


def encode_encrypted_key(key: EncryptedKey) -> bytes:
    """Serialize one encrypted key."""
    if len(key.ciphertext) > 0xFFFF:
        raise CodecError("ciphertext too long")
    try:
        return b"".join(
            (
                _pack_str(key.wrapping_id),
                struct.pack(">I", key.wrapping_version),
                _pack_str(key.payload_id),
                struct.pack(">I", key.payload_version),
                struct.pack(">H", len(key.ciphertext)),
                key.ciphertext,
            )
        )
    except struct.error as error:
        raise CodecError(f"key version out of range: {error}") from None


def decode_encrypted_key(data: bytes, offset: int = 0) -> Tuple[EncryptedKey, int]:
    """Parse one encrypted key; returns ``(key, next_offset)``."""
    wrapping_id, offset = _unpack_str(data, offset)
    if offset + 4 > len(data):
        raise CodecError("truncated wrapping version")
    (wrapping_version,) = struct.unpack_from(">I", data, offset)
    offset += 4
    payload_id, offset = _unpack_str(data, offset)
    if offset + 4 > len(data):
        raise CodecError("truncated payload version")
    (payload_version,) = struct.unpack_from(">I", data, offset)
    offset += 4
    if offset + 2 > len(data):
        raise CodecError("truncated ciphertext length")
    (ct_len,) = struct.unpack_from(">H", data, offset)
    offset += 2
    if offset + ct_len > len(data):
        raise CodecError("truncated ciphertext")
    ciphertext = data[offset : offset + ct_len]
    return (
        EncryptedKey(
            wrapping_id=wrapping_id,
            wrapping_version=wrapping_version,
            payload_id=payload_id,
            payload_version=payload_version,
            ciphertext=ciphertext,
        ),
        offset + ct_len,
    )


def encode_rekey_message(message: RekeyMessage) -> bytes:
    """Serialize a whole rekey broadcast."""
    try:
        epoch = struct.pack(">Q", message.epoch)
    except struct.error as error:
        raise CodecError(f"epoch out of range: {error}") from None
    parts: List[bytes] = [_MAGIC, _pack_str(message.group), epoch]
    for roster in (message.joined, message.departed):
        if len(roster) > 0xFFFF:
            raise CodecError("roster too long")
        parts.append(struct.pack(">H", len(roster)))
        parts.extend(_pack_str(member_id) for member_id in roster)
    parts.append(struct.pack(">I", len(message.advanced)))
    try:
        for key_id, version in message.advanced:
            parts.append(_pack_str(key_id))
            parts.append(struct.pack(">I", version))
    except struct.error as error:
        raise CodecError(f"advanced version out of range: {error}") from None
    parts.append(struct.pack(">I", len(message.encrypted_keys)))
    parts.extend(encode_encrypted_key(key) for key in message.encrypted_keys)
    return b"".join(parts)


def decode_rekey_message(data: bytes) -> RekeyMessage:
    """Parse a rekey broadcast; raises :class:`CodecError` on bad input."""
    if data[:4] != _MAGIC:
        raise CodecError("bad magic")
    offset = 4
    group, offset = _unpack_str(data, offset)
    if offset + 8 > len(data):
        raise CodecError("truncated epoch")
    (epoch,) = struct.unpack_from(">Q", data, offset)
    offset += 8
    rosters: List[List[str]] = []
    for __ in range(2):
        if offset + 2 > len(data):
            raise CodecError("truncated roster count")
        (count,) = struct.unpack_from(">H", data, offset)
        offset += 2
        roster = []
        for __ in range(count):
            member_id, offset = _unpack_str(data, offset)
            roster.append(member_id)
        rosters.append(roster)
    if offset + 4 > len(data):
        raise CodecError("truncated advanced count")
    (advanced_count,) = struct.unpack_from(">I", data, offset)
    offset += 4
    advanced = []
    for __ in range(advanced_count):
        key_id, offset = _unpack_str(data, offset)
        if offset + 4 > len(data):
            raise CodecError("truncated advanced version")
        (version,) = struct.unpack_from(">I", data, offset)
        offset += 4
        advanced.append((key_id, version))
    if offset + 4 > len(data):
        raise CodecError("truncated key count")
    (key_count,) = struct.unpack_from(">I", data, offset)
    offset += 4
    keys: List[EncryptedKey] = []
    for __ in range(key_count):
        key, offset = decode_encrypted_key(data, offset)
        keys.append(key)
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
    message.updated = sorted({key.payload_handle for key in keys})
    return message


def wire_size(message: RekeyMessage) -> int:
    """Exact wire bytes of the encoded message."""
    return len(encode_rekey_message(message))
