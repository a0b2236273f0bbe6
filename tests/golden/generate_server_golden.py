"""Generate the golden *server* payload fixtures in ``tests/golden/``.

``server_payloads.json`` pins, for each of seven conformance schemes,
everything one seeded churn trace puts on the wire and leaves in the
server: per batch the ``(wrapping_id, wrapping_version, payload_id,
payload_version, ciphertext)`` list in order, the ``breakdown`` (key
order included), ``migrated``, ``advanced``, the group key's id and
version and the server generator's draw counter.  The trace has
joins-only, departures-only, mixed, empty and migration-only batches and
a joiner that cancels before admission.

``server_snapshots_v1.json`` holds format-1 ``snapshot_server`` dicts, one
per scheme plus a sharded server on the process backend, each taken
mid-trace: before batch 11, its joins and leaves already queued.  The
hash-sharded scheme has since been retired: its two snapshots stay in
that file as documents a restore must refuse, and its entry was deleted
from the payload fixture (every other entry is as recorded).

Both files were recorded at commit a5b5b05, before the four server
classes became one partitioned server, and are the anchor that refactor
(and any later one) is held to: ``tests/test_golden_payloads.py`` and
``tests/test_conformance_snapshot.py`` replay them byte for byte.  Do not
regenerate the payloads to make a change pass; regenerate only when a
payload change is intended and reviewed:

    PYTHONPATH=src python tests/golden/generate_server_golden.py

The snapshots cannot be regenerated at all: nothing writes format 1 (or
runs a process backend) any more.  The code that wrote them is this
file as first committed (``git log --diff-filter=A -- <this file>``).

One normalisation is applied while recording.  On a join-only batch the
QT server of a5b5b05 wrapped the fresh group key for its joiners in the
iteration order of a ``set`` of their ids, which varies with
``PYTHONHASHSEED``; those wraps (the tail of the ``group-key`` segment)
are recorded in join order, the one order that does not.
"""

import json
import random
import re
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent
FIXTURE = GOLDEN_DIR / "server_payloads.json"
SNAPSHOTS = GOLDEN_DIR / "server_snapshots_v1.json"

SEED = 22
PERIOD = 100.0
S_PERIOD = 300.0
#: (joins, leaves) per batch; a ``-`` batch is empty for every scheme but
#: QT / TT, where the ones marked so carry a migration wave and nothing else.
SCHEDULE = [
    (9, 0),  # 1  joins only
    (4, 0),  # 2  joins only
    (3, 2),  # 3  mixed
    (0, 2),  # 4  departures only (QT / TT: + batch 1 migrates)
    (0, 0),  # 5  - migration only (batch 2's joiners)
    (2, 1),  # 6  mixed, and one joiner cancels before admission
    (1, 0),  # 7  one joiner
    (0, 0),  # 8  - empty everywhere
    (0, 3),  # 9  departures only
    (5, 1),  # 10 mixed
    (2, 2),  # 11 mixed
    (0, 1),  # 12 departures only
    (0, 0),  # 13 - migration only (batch 10's joiners)
    (3, 3),  # 14 mixed
    (6, 0),  # 15 joins only
    (0, 4),  # 16 departures only
    (0, 0),  # 17 - empty everywhere
    (2, 2),  # 18 mixed
    (1, 1),  # 19 mixed
    (0, 2),  # 20 departures only
]
CANCEL_IN_BATCH = 6

#: Each scheme's key stream is seeded ``SEED + offset``.  The offsets are
#: the schemes' places in the recorded tuple, which also held ``sharded``
#: at 2; pinned, so dropping a scheme shifts no other scheme's keys.
SEED_OFFSETS = {
    "one-keytree": 0,
    "one-keytree-owf": 1,
    "qt": 3,
    "tt": 4,
    "pt": 5,
    "loss-homogenized": 6,
    "loss-random": 7,
}
SCHEMES = tuple(SEED_OFFSETS)

_LOSS_RATES = (0.20, 0.02, 0.15, 0.05, 0.30, 0.0)


def build(scheme):
    """A fresh server for ``scheme`` on its own seeded key stream."""
    from repro.crypto.material import KeyGenerator
    from repro.server.losshomog import LossHomogenizedServer
    from repro.server.onetree import OneTreeServer
    from repro.server.twopartition import TwoPartitionServer

    keygen = KeyGenerator(SEED + SEED_OFFSETS[scheme])
    common = {"keygen": keygen, "group": "golden"}
    if scheme == "one-keytree":
        return OneTreeServer(degree=4, **common)
    if scheme == "one-keytree-owf":
        return OneTreeServer(degree=3, join_refresh="owf", **common)
    if scheme in ("qt", "tt", "pt"):
        return TwoPartitionServer(
            mode=scheme, s_period=S_PERIOD, degree=3, **common
        )
    if scheme == "loss-homogenized":
        return LossHomogenizedServer(class_rates=(0.20, 0.02), degree=4, **common)
    if scheme == "loss-random":
        return LossHomogenizedServer(
            class_rates=(0.20, 0.02), placement="random", degree=4, **common
        )
    raise ValueError(f"unknown scheme {scheme!r}")


def join_attributes(scheme, index):
    """The attributes member number ``index`` joins ``scheme`` with."""
    if scheme in ("qt", "tt", "pt"):
        return {"member_class": "Cl" if index % 3 == 0 else "Cs"}
    if scheme == "loss-homogenized":
        return {"loss_rate": _LOSS_RATES[index % len(_LOSS_RATES)]}
    return {}


def trace_batches():
    """The churn trace: per batch ``(now, joins, cancelled, leaves)``.

    A pure function of ``SEED`` — it never looks at a server — so a
    restored server can be driven through any suffix of it.
    """
    rng = random.Random(SEED)
    present = []
    counter = 0
    batches = []
    for number, (n_joins, n_leaves) in enumerate(SCHEDULE, start=1):
        leaves = [present.pop(rng.randrange(len(present))) for _ in range(n_leaves)]
        joins = []
        for _ in range(n_joins):
            counter += 1
            joins.append(counter)
        cancelled = []
        if number == CANCEL_IN_BATCH:
            counter += 1
            cancelled.append(counter)
        present.extend(joins)
        batches.append((PERIOD * number, joins, cancelled, leaves))
    return batches


def queue_batch(server, scheme, batch):
    """Queue one batch's joins (and the cancelled one) and leaves."""
    now, joins, cancelled, leaves = batch
    for index in joins + cancelled:
        server.join(
            f"g{index}", at_time=now - PERIOD / 2, **join_attributes(scheme, index)
        )
    for index in cancelled:
        server.leave(f"g{index}", at_time=now - PERIOD / 4)
    for index in leaves:
        server.leave(f"g{index}", at_time=now - PERIOD / 4)


def batch_record(server, scheme, result):
    """What the fixture pins about one processed batch."""
    wraps = [
        [
            ek.wrapping_id,
            ek.wrapping_version,
            ek.payload_id,
            ek.payload_version,
            ek.ciphertext.hex(),
        ]
        for ek in result.encrypted_keys
    ]
    if scheme == "qt" and result.joined and not result.departed:
        # See the module docstring: per-joiner DEK wraps, in join order.
        tail = result.breakdown["group-key"] - 1
        order = {f"member:{m}": i for i, m in enumerate(result.joined)}
        wraps[-tail:] = sorted(wraps[-tail:], key=lambda wrap: order[wrap[0]])
    dek = server.group_key()
    return {
        "epoch": result.epoch,
        "joined": list(result.joined),
        "departed": list(result.departed),
        "migrated": list(result.migrated),
        "advanced": [list(pair) for pair in result.advanced],
        "breakdown": [[label, count] for label, count in result.breakdown.items()],
        "group_key": [dek.key_id, dek.version],
        "keygen_counter": server.keygen.state()["counter"],
        "wraps": wraps,
    }


def replay(scheme, server=None, start=1):
    """Drive ``scheme`` through the trace from batch ``start`` on.

    With ``server`` given (a restored snapshot), batch ``start`` is taken
    to be queued already and only rekeyed.
    """
    queued = server is not None
    if server is None:
        server = build(scheme)
    records = []
    for batch in trace_batches()[start - 1:]:
        if not queued:
            queue_batch(server, scheme, batch)
        queued = False
        records.append(batch_record(server, scheme, server.rekey(now=batch[0])))
    return records


def _dump(data):
    """Indented JSON with every innermost list (one wrap, one pair) on one line."""
    text = json.dumps(data, indent=1)
    flat = re.sub(
        r"\[\s+([^\[\]{}]*?)\s+\]",
        lambda match: "[" + " ".join(match.group(1).split()) + "]",
        text,
    )
    assert json.loads(flat) == data
    return flat + "\n"


def _check_coverage(fixture):
    """The trace must keep exercising every batch shape it promises."""
    for scheme, records in fixture["schemes"].items():
        shapes = {
            (bool(r["joined"]), bool(r["departed"]), bool(r["migrated"]))
            for r in records
        }
        assert {(True, False), (False, True), (True, True)} <= {
            s[:2] for s in shapes
        }, scheme
        assert (False, False, False) in shapes, scheme
        if scheme in ("qt", "tt"):
            assert (False, False, True) in shapes, scheme
    assert any(r["advanced"] for r in fixture["schemes"]["one-keytree-owf"])


def main():
    fixture = {
        "format": 1,
        "recorded_at": "a5b5b05",
        "schemes": {scheme: replay(scheme) for scheme in SCHEMES},
    }
    _check_coverage(fixture)
    FIXTURE.write_text(_dump(fixture))
    wraps = {s: sum(len(r["wraps"]) for r in rs) for s, rs in fixture["schemes"].items()}
    print(f"wrote {FIXTURE} ({wraps} wraps)")


if __name__ == "__main__":
    main()
