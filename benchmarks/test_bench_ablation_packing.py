"""Ablation: WKA packing order (BFS vs DFS), measured end to end.

[SZJ02] allows packing weighted keys breadth-first or depth-first; the
paper's models are packing-agnostic.  This benchmark runs both against the
same simulated lossy sessions and reports the measured wire cost.
"""

import random

from repro.crypto.material import KeyGenerator
from repro.keytree.flat import FlatKeyTree, FlatRekeyer
from repro.network.channel import MulticastChannel
from repro.network.loss import BernoulliLoss
from repro.testing.oracle import build_task
from repro.transport.wka_bkr import WkaBkrProtocol

from bench_utils import emit

GROUP = 512
DEPARTURES = 24
LOSS = 0.12
TRIALS = 6


def run_packing(packing: str) -> int:
    total = 0
    for trial in range(TRIALS):
        tree = FlatKeyTree(degree=4, keygen=KeyGenerator(trial))
        rekeyer = FlatRekeyer(tree)
        members = [f"m{i}" for i in range(GROUP)]
        rekeyer.rekey_batch(joins=[(m, None) for m in members])
        held = {
            m: {n.key.key_id: n.key.version for n in tree.path_of(m)}
            for m in members
        }
        victims = random.Random(trial).sample(members, DEPARTURES)
        message = rekeyer.rekey_batch(departures=victims)
        survivors = [m for m in members if m not in victims]
        task = build_task(message, {m: held[m] for m in survivors})
        channel = MulticastChannel(seed=1000 + trial)
        for m in survivors:
            channel.subscribe(m, BernoulliLoss(LOSS))
        protocol = WkaBkrProtocol(keys_per_packet=16, packing=packing)
        outcome = protocol.run(task, channel)
        assert outcome.satisfied
        total += outcome.keys_sent
    return total


def test_packing_ablation(benchmark):
    results = benchmark.pedantic(
        lambda: {"bfs": run_packing("bfs"), "dfs": run_packing("dfs")},
        rounds=1,
        iterations=1,
    )
    lines = [
        "Ablation — WKA packing order (wire keys over "
        f"{TRIALS} sessions, N={GROUP}, L={DEPARTURES}, p={LOSS})"
    ]
    for packing, keys in results.items():
        lines.append(f"  {packing}: {keys} keys")
    emit("ablation_packing", "\n".join(lines))

    # Both orders deliver; neither should be catastrophically worse.
    ratio = max(results.values()) / min(results.values())
    assert ratio < 1.25
