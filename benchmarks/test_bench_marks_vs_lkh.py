"""Extension benchmark: MARKS vs batched LKH on a pre-planned workload.

MARKS [Briscoe99] (from the paper's Section 1 survey) costs *zero*
multicast rekey bandwidth when membership intervals are known in advance
— each subscriber gets <= 2·log2(T) seeds over unicast.  The comparison
grounds the trade the paper's two-partition scheme navigates: LKH-family
schemes pay multicast bandwidth to support *unplanned* departures, which
MARKS simply cannot express.
"""

from repro.crypto.material import KeyGenerator
from repro.keytree.flat import FlatKeyTree, FlatRekeyer
from repro.keytree.marks import MarksKeySequence, MarksReceiver
from repro.members.durations import TwoClassDuration
from repro.members.trace import MBoneTraceGenerator

from bench_utils import emit

SESSION = 3600.0
SLOT = 60.0  # one MARKS slot per rekey period
DEPTH = 6  # 64 slots


def measure():
    generator = MBoneTraceGenerator(
        duration_model=TwoClassDuration(300.0, 3600.0, 0.7),
        arrival_rate=0.3,
        seed=12,
    )
    records = generator.generate(SESSION)

    # --- MARKS: grants sized by each member's (pre-declared) interval.
    sequence = MarksKeySequence(depth=DEPTH, keygen=KeyGenerator(12))
    unicast_seeds = 0
    for r in records:
        start = int(r.join_time // SLOT)
        end = min(int(r.leave_time // SLOT) + 1, sequence.slots)
        grant = sequence.grant(start, end)
        unicast_seeds += len(grant)
        receiver = MarksReceiver(sequence.depth, grant)
        assert receiver.slot_key(start) == sequence.slot_key(start)

    # --- batched LKH: the same membership replayed through rekey batches.
    tree = FlatKeyTree(degree=4, keygen=KeyGenerator(13))
    rekeyer = FlatRekeyer(tree)
    multicast_keys = 0
    events = sorted(
        [(r.join_time, "join", r.member_id) for r in records]
        + [
            (r.leave_time, "leave", r.member_id)
            for r in records
            if r.leave_time < SESSION
        ]
    )
    cursor = 0
    t = SLOT
    while t <= SESSION:
        joins, leaves = [], []
        while cursor < len(events) and events[cursor][0] <= t:
            __, kind, member = events[cursor]
            cursor += 1
            if kind == "join":
                joins.append((member, None))
            elif member in tree:
                leaves.append(member)
            else:
                joins = [j for j in joins if j[0] != member]
        multicast_keys += rekeyer.rekey_batch(joins=joins, departures=leaves).cost
        t += SLOT
    return {
        "members": len(records),
        "marks_unicast_seeds": unicast_seeds,
        "marks_multicast_keys": 0,
        "lkh_multicast_keys": multicast_keys,
    }


def test_marks_vs_lkh(benchmark):
    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = [
        f"Extension — MARKS vs batched LKH, {results['members']} pre-planned "
        f"members over a {SESSION:.0f}s session ({DEPTH}-level sequence)"
    ]
    lines.append(
        f"  MARKS: {results['marks_multicast_keys']} multicast keys, "
        f"{results['marks_unicast_seeds']} unicast seeds "
        f"({results['marks_unicast_seeds'] / results['members']:.1f}/member)"
    )
    lines.append(f"  LKH:   {results['lkh_multicast_keys']} multicast keys")
    lines.append(
        "  caveat: MARKS requires intervals declared at join time and "
        "cannot evict early — the flexibility LKH's bandwidth buys"
    )
    emit("marks_vs_lkh", "\n".join(lines))

    assert results["marks_multicast_keys"] == 0
    assert results["lkh_multicast_keys"] > 0
    per_member = results["marks_unicast_seeds"] / results["members"]
    assert per_member <= 2 * DEPTH
