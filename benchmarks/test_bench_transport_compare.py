"""Transport comparison: multi-send vs WKA-BKR vs proactive FEC.

Reproduces the Section 2.2 landscape on identical simulated sessions:
WKA-BKR should show the lowest wire cost of the three in the paper's
mixed-loss scenario ([SZJ02]'s result, which Section 4 builds on).
"""

import random

from repro.crypto.material import KeyGenerator
from repro.keytree.flat import FlatKeyTree, FlatRekeyer
from repro.network.channel import MulticastChannel
from repro.network.loss import BernoulliLoss
from repro.testing.oracle import build_task
from repro.transport.fec import ProactiveFecProtocol
from repro.transport.multisend import MultiSendProtocol
from repro.transport.wka_bkr import WkaBkrProtocol

from bench_utils import emit

GROUP = 512
DEPARTURES = 24
HIGH_LOSS, LOW_LOSS, HIGH_FRACTION = 0.20, 0.02, 0.2
TRIALS = 5


def run_protocol(protocol) -> int:
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
        rng = random.Random(trial)
        victims = rng.sample(members, DEPARTURES)
        message = rekeyer.rekey_batch(departures=victims)
        survivors = [m for m in members if m not in victims]
        task = build_task(message, {m: held[m] for m in survivors})
        channel = MulticastChannel(seed=500 + trial)
        for i, m in enumerate(survivors):
            rate = HIGH_LOSS if rng.random() < HIGH_FRACTION else LOW_LOSS
            channel.subscribe(m, BernoulliLoss(rate))
        outcome = protocol.run(task, channel)
        assert outcome.satisfied
        total += outcome.keys_sent
    return total


def test_transport_comparison(benchmark):
    protocols = {
        "multi-send(x2)": MultiSendProtocol(keys_per_packet=16, replication=2),
        "wka-bkr": WkaBkrProtocol(keys_per_packet=16),
        "proactive-fec": ProactiveFecProtocol(keys_per_packet=16, block_size=8),
    }
    results = benchmark.pedantic(
        lambda: {name: run_protocol(p) for name, p in protocols.items()},
        rounds=1,
        iterations=1,
    )
    lines = [
        f"Transport comparison — wire keys over {TRIALS} sessions "
        f"(N={GROUP}, L={DEPARTURES}, {HIGH_FRACTION:.0%} at {HIGH_LOSS:.0%} loss)"
    ]
    for name, keys in results.items():
        lines.append(f"  {name:15s} {keys:8d} keys")
    emit("transport_compare", "\n".join(lines))

    # [SZJ02]: WKA-BKR beats blanket replication in mixed-loss scenarios.
    assert results["wka-bkr"] < results["multi-send(x2)"]
