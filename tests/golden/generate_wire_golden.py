"""Generate the golden *wire* fixture ``tests/golden/wire_payloads.json``.

For every batch of the seven-scheme churn trace of
``generate_server_golden.py`` this pins the sha256 of the encoded rekey
broadcast, ``encode_rekey_message`` of the batch's group, epoch, wraps,
one-way advances and rosters.  The fixture keeps the digest list as it
was recorded in each of the two wrap modes the code once had ("eager"
sealed in the rekeyer, "deferred" sealed when the codec read a row); the
two lists are equal, and the one wrap path, which seals a row on its
first read, must reproduce both.

Recorded at commit 1284af7, before the payload became one columnar
object from wrap to absorb; ``tests/test_golden_wire.py`` replays it,
checks that decoding and re-encoding gives the same bytes and that the
decoded records are the wraps ``server_payloads.json`` pins.  The
retired hash-sharded scheme's entry was deleted from it; every other
entry is as recorded.  Do not regenerate it to make a change pass;
regenerate only when a wire change is intended and reviewed:

    PYTHONPATH=src python tests/golden/generate_wire_golden.py
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent
FIXTURE = GOLDEN_DIR / "wire_payloads.json"
RECORDED_AS = ("eager", "deferred")


def _server_generator():
    name = "generate_server_golden"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, GOLDEN_DIR / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def wire_message(server, result):
    """The broadcast one batch puts on the wire."""
    from repro.crypto.wrap import RekeyMessage

    return RekeyMessage(
        group=server.group,
        epoch=result.epoch,
        encrypted_keys=result.encrypted_keys,
        advanced=list(result.advanced),
        joined=list(result.joined),
        departed=list(result.departed),
    )


def replay(scheme):
    """``(result, wire bytes)`` for every batch of the trace."""
    from repro.transport.codec import encode_rekey_message

    servers = _server_generator()
    server = servers.build(scheme)
    batches = []
    for batch in servers.trace_batches():
        servers.queue_batch(server, scheme, batch)
        result = server.rekey(now=batch[0])
        batches.append((result, encode_rekey_message(wire_message(server, result))))
    return batches


def digest(blob):
    return hashlib.sha256(blob).hexdigest()


def main():
    servers = _server_generator()
    fixture = {
        "format": 1,
        "recorded_at": "1284af7",
        "schemes": {
            scheme: dict.fromkeys(
                RECORDED_AS, [digest(blob) for __, blob in replay(scheme)]
            )
            for scheme in servers.SCHEMES
        },
    }
    FIXTURE.write_text(json.dumps(fixture, indent=1) + "\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
