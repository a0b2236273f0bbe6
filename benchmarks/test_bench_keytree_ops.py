"""Micro-benchmarks: key-tree and rekeying throughput.

These time the real data-structure operations (with real key wrapping) a
production key server would run, giving the reproduction's substrate a
performance baseline.
"""

import random

from repro.crypto.material import KeyGenerator
from repro.keytree.flat import FlatKeyTree, FlatRekeyer

from bench_utils import emit


def build_tree(size, seed=0, degree=4):
    tree = FlatKeyTree(degree=degree, keygen=KeyGenerator(seed))
    rekeyer = FlatRekeyer(tree)
    rekeyer.rekey_batch(joins=[(f"m{i}", None) for i in range(size)])
    return tree, rekeyer


def test_bulk_insertion_4096(benchmark):
    def build():
        tree, __ = build_tree(4096)
        return tree

    tree = benchmark(build)
    assert tree.size == 4096


def test_batch_rekey_64_departures_of_4096(benchmark):
    state = {}

    def setup():
        tree, rekeyer = build_tree(4096, seed=len(state))
        state[len(state)] = rekeyer
        victims = random.Random(0).sample(tree.members(), 64)
        return (rekeyer, victims), {}

    def run(rekeyer, victims):
        return rekeyer.rekey_batch(departures=victims)

    message = benchmark.pedantic(run, setup=setup, rounds=5, iterations=1)
    assert message.cost > 0


def test_individual_leave_from_4096(benchmark):
    state = {"i": 0}
    tree, rekeyer = build_tree(4096)

    def run():
        member = f"m{state['i']}"
        state["i"] += 1
        return rekeyer.leave(member)

    message = benchmark.pedantic(run, rounds=50, iterations=1)
    assert message.cost > 0
    emit(
        "keytree_ops",
        "Micro-benchmarks run; see the pytest-benchmark table for timings.",
    )
