"""Golden wire anchor: the encoded rekey broadcast of every server batch.

``tests/golden/wire_payloads.json`` pins the sha256 of
``encode_rekey_message`` for each batch of the seven-scheme churn trace,
as recorded in each of the two wrap modes the code once had.  Replaying
the one wrap path checks three things per batch against each recorded
list: the bytes hash to the pinned digest, decoding and re-encoding gives those
bytes back, and the decoded records are the wraps ``server_payloads.json``
pins for that batch.
"""

import json

import pytest

from repro.transport.codec import decode_rekey_message, encode_rekey_message

from tests.helpers import load_golden_generator

_wire = load_golden_generator("generate_wire_golden")
_fixture = json.loads(_wire.FIXTURE.read_text())
_servers = load_golden_generator("generate_server_golden")
_server_fixture = json.loads(_servers.FIXTURE.read_text())


def _records(message, scheme, result):
    """The decoded wraps as ``server_payloads.json`` lists them (the QT
    join-order normalisation of ``batch_record`` included)."""
    wraps = [
        [ek.wrapping_id, ek.wrapping_version, ek.payload_id, ek.payload_version,
         ek.ciphertext.hex()]
        for ek in message.encrypted_keys
    ]
    if scheme == "qt" and result.joined and not result.departed:
        tail = result.breakdown["group-key"] - 1
        order = {f"member:{m}": i for i, m in enumerate(result.joined)}
        wraps[-tail:] = sorted(wraps[-tail:], key=lambda wrap: order[wrap[0]])
    return wraps


@pytest.mark.parametrize("recorded", _wire.RECORDED_AS)
@pytest.mark.parametrize("scheme", _servers.SCHEMES)
def test_wire_bytes_reproduce_the_golden_digests(scheme, recorded):
    assert _fixture["format"] == 1
    digests = _fixture["schemes"][scheme][recorded]
    pinned = _server_fixture["schemes"][scheme]
    batches = _wire.replay(scheme)
    assert len(batches) == len(digests) == len(pinned)
    for (result, blob), digest, want in zip(batches, digests, pinned):
        epoch = want["epoch"]
        assert _wire.digest(blob) == digest, f"{scheme} epoch {epoch}: wire bytes moved"
        message = decode_rekey_message(blob)
        assert encode_rekey_message(message) == blob, f"{scheme} epoch {epoch}"
        assert _records(message, scheme, result) == want["wraps"], (
            f"{scheme} epoch {epoch}: decoded records differ from server_payloads.json"
        )
        assert (message.joined, message.departed) == (want["joined"], want["departed"])
        assert [list(pair) for pair in message.advanced] == want["advanced"]


def test_both_wrap_modes_pin_the_same_bytes():
    """The two recorded lists agree, so one path can match both."""
    for scheme, modes in _fixture["schemes"].items():
        assert modes["eager"] == modes["deferred"], scheme
    assert set(_fixture["schemes"]) == set(_servers.SCHEMES)
