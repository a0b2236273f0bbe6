"""Extension benchmark: stateless (Complete Subtree) vs stateful (LKH).

The paper's survey includes Subset-Difference [MNL01] — stateless
receivers, broadcast size growing with the *cumulative* revoked set —
against which LKH trades receiver state updates for per-eviction costs
that never grow.  The benchmark revokes members one at a time and tracks
both schemes' per-round broadcast sizes to locate the crossover.
"""

import random

from repro.crypto.material import KeyGenerator
from repro.experiments.report import Series
from repro.keytree.flat import FlatKeyTree, FlatRekeyer
from repro.keytree.subsetcover import CompleteSubtreeCenter

from bench_utils import emit

CAPACITY_BITS = 9  # 512 slots
REVOCATIONS = 64


def measure() -> Series:
    rng = random.Random(6)
    order = rng.sample(range(1 << CAPACITY_BITS), REVOCATIONS)

    center = CompleteSubtreeCenter(depth=CAPACITY_BITS, keygen=KeyGenerator(6))
    session = KeyGenerator(7)
    tree = FlatKeyTree(degree=2, keygen=KeyGenerator(8))
    rekeyer = FlatRekeyer(tree)
    rekeyer.rekey_batch(
        joins=[(f"m{i}", None) for i in range(1 << CAPACITY_BITS)]
    )

    checkpoints = [1, 2, 4, 8, 16, 32, 64]
    cs_sizes, lkh_sizes = [], []
    revoked_so_far = 0
    for i, slot in enumerate(order, start=1):
        center.revoke(slot)
        lkh_cost = rekeyer.leave(f"m{slot}").cost
        if i in checkpoints:
            cs_sizes.append(
                len(center.broadcast(session.generate("session", version=i)))
            )
            lkh_sizes.append(lkh_cost)
    series = Series(
        title=(
            "Extension — stateless Complete Subtree vs LKH "
            f"(N={1 << CAPACITY_BITS}, cumulative revocations)"
        ),
        x_label="revoked",
        x_values=[float(c) for c in checkpoints],
    )
    series.add_column("CS-broadcast-keys", cs_sizes)
    series.add_column("LKH-rekey-keys", lkh_sizes)
    series.notes.append(
        "CS receivers never update state (offline-safe); LKH receivers "
        "must follow every rekey but per-eviction cost stays flat"
    )
    return series


def test_stateless_vs_lkh(benchmark):
    series = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit("stateless_vs_lkh", series.format_table())

    cs = series.column("CS-broadcast-keys")
    lkh = series.column("LKH-rekey-keys")
    # CS broadcast grows with the cumulative revoked set ...
    assert cs[-1] > cs[0]
    # ... while LKH per-eviction cost stays ~flat ...
    assert max(lkh) <= 2.5 * min(lkh)
    # ... so CS starts cheaper and ends costlier.
    assert cs[0] < lkh[0]
    assert cs[-1] > lkh[-1]
