"""Generate the golden rekey-payload fixtures in ``tests/golden/``.

The fixtures pin the *bytes on the wire* — wrap order, key ids, versions
and ciphertexts — for a handful of deterministic churn traces, as emitted
by the object kernel at the time of recording.  Both kernels must keep
reproducing them exactly (``tests/test_golden_payloads.py``), making the
fixtures a regression anchor that outlives any future rewrite of either
kernel: if the object tree's behavior ever drifts, the battery catches it
here rather than silently dragging the flat kernel along.

Regenerate (only when a payload change is *intended* and reviewed):

    PYTHONPATH=src python tests/golden/generate_flat_golden.py
"""

import json
import random
from pathlib import Path

FIXTURE = Path(__file__).parent / "flat_kernel_payloads.json"

TRACES = [
    {"name": "deg2-mixed", "seed": 7, "degree": 2, "steps": 15},
    {"name": "deg3-mixed", "seed": 19, "degree": 3, "steps": 15},
    {"name": "deg4-owf", "seed": 31, "degree": 4, "steps": 12,
     "join_refresh": "owf"},
]


def _build(trace, kernel):
    from repro.crypto.material import KeyGenerator
    from repro.keytree.flat import FlatKeyTree, FlatRekeyer
    from repro.testing.lkh import LkhRekeyer
    from repro.testing.tree import KeyTree

    tree_cls, rekeyer_cls = {
        "object": (KeyTree, LkhRekeyer),
        "flat": (FlatKeyTree, FlatRekeyer),
    }[kernel]
    tree = tree_cls(
        degree=trace["degree"],
        keygen=KeyGenerator(trace["seed"]),
        name="golden/tree",
    )
    return rekeyer_cls(tree)


def _message_record(message):
    return {
        "epoch": message.epoch,
        "updated": [list(pair) for pair in message.updated],
        "advanced": [list(pair) for pair in message.advanced],
        "joined": list(message.joined),
        "departed": list(message.departed),
        "wraps": [
            [
                ek.wrapping_id,
                ek.wrapping_version,
                ek.payload_id,
                ek.payload_version,
                ek.ciphertext.hex(),
            ]
            for ek in message.encrypted_keys
        ],
    }


def replay(trace, kernel):
    """Run one deterministic churn trace; return per-step payload records."""
    rekeyer = _build(trace, kernel)
    join_refresh = trace.get("join_refresh", "random")
    rng = random.Random(trace["seed"])
    present = []
    counter = 0
    records = []
    for _ in range(trace["steps"]):
        op = rng.random()
        if op < 0.35 or not present:
            counter += 1
            member = f"m{counter}"
            message = rekeyer.join(member)[1]
            present.append(member)
        elif op < 0.5 and join_refresh != "owf":
            message = rekeyer.leave(present.pop(rng.randrange(len(present))))
        elif op < 0.9:
            ndep = (
                0
                if join_refresh == "owf"
                else rng.randrange(0, min(3, len(present)) + 1)
            )
            departures = [
                present.pop(rng.randrange(len(present)))
                for _ in range(min(ndep, len(present)))
            ]
            joins = []
            for _ in range(rng.randrange(1, 4)):
                counter += 1
                joins.append((f"m{counter}", None))
                present.append(f"m{counter}")
            message = rekeyer.rekey_batch(
                joins=joins, departures=departures, join_refresh=join_refresh
            )
        else:
            message = rekeyer.refresh_root()
        records.append(_message_record(message))
    return records


def main():
    fixture = {
        "format": 1,
        "note": "object-kernel golden payloads; both kernels must match",
        "traces": [
            {**trace, "records": replay(trace, "object")} for trace in TRACES
        ],
    }
    FIXTURE.write_text(json.dumps(fixture, indent=1) + "\n")
    sizes = [
        sum(len(r["wraps"]) for r in t["records"]) for t in fixture["traces"]
    ]
    print(f"wrote {FIXTURE} ({sizes} wraps per trace)")


if __name__ == "__main__":
    main()
