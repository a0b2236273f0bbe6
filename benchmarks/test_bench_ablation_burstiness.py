"""Ablation: bursty (Gilbert–Elliott) vs independent (Bernoulli) loss.

The paper's transport models assume independent per-packet loss (eq. 13).
This ablation runs WKA-BKR and proactive FEC over both loss processes at
a *matched mean loss rate* and reports the measured wire cost — showing
how far the independence assumption bends under burstiness.
"""

import random

from repro.crypto.material import KeyGenerator
from repro.keytree.flat import FlatKeyTree, FlatRekeyer
from repro.network.channel import MulticastChannel
from repro.network.loss import BernoulliLoss, GilbertElliottLoss
from repro.testing.oracle import build_task
from repro.transport.fec import ProactiveFecProtocol
from repro.transport.wka_bkr import WkaBkrProtocol

from bench_utils import emit

GROUP = 256
DEPARTURES = 16
TRIALS = 5
MEAN_LOSS = 0.10


def make_bursty():
    # Stationary bad-state probability 0.2, bad loss 0.5 -> mean 0.10.
    return GilbertElliottLoss(
        p_good_to_bad=0.05, p_bad_to_good=0.20, good_loss=0.0, bad_loss=0.5
    )


def run(protocol_factory, loss_factory) -> int:
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
        channel = MulticastChannel(seed=2000 + trial)
        for m in survivors:
            channel.subscribe(m, loss_factory())
        outcome = protocol_factory().run(task, channel)
        assert outcome.satisfied
        total += outcome.keys_sent
    return total


def test_burstiness_ablation(benchmark):
    def measure():
        return {
            ("wka-bkr", "bernoulli"): run(
                lambda: WkaBkrProtocol(keys_per_packet=16),
                lambda: BernoulliLoss(MEAN_LOSS),
            ),
            ("wka-bkr", "bursty"): run(
                lambda: WkaBkrProtocol(keys_per_packet=16), make_bursty
            ),
            ("fec", "bernoulli"): run(
                lambda: ProactiveFecProtocol(keys_per_packet=16, block_size=8),
                lambda: BernoulliLoss(MEAN_LOSS),
            ),
            ("fec", "bursty"): run(
                lambda: ProactiveFecProtocol(keys_per_packet=16, block_size=8),
                make_bursty,
            ),
        }

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = [
        "Ablation — loss burstiness at matched mean loss "
        f"({MEAN_LOSS:.0%}; wire keys over {TRIALS} sessions)"
    ]
    for (protocol, loss), keys in results.items():
        lines.append(f"  {protocol:8s} {loss:10s} {keys:7d} keys")
    emit("ablation_burstiness", "\n".join(lines))

    # Both transports must complete under burstiness; the cost ratio stays
    # within a small factor of the independent-loss cost.
    for protocol in ("wka-bkr", "fec"):
        ratio = results[(protocol, "bursty")] / results[(protocol, "bernoulli")]
        assert 0.5 < ratio < 2.5
