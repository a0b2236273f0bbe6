"""Extension benchmark: OFT vs binary LKH per-eviction bandwidth.

The paper notes its optimizations apply to OFT-style trees too; this
benchmark grounds the comparison: OFT delivers ~h blinded keys per
eviction where binary LKH delivers ~2h wraps ([BM00]'s halving).
"""

from repro.crypto.material import KeyGenerator
from repro.keytree.flat import FlatKeyTree, FlatRekeyer
from repro.keytree.oft import OneWayFunctionTree

from bench_utils import emit

GROUP = 256
EVICTIONS = 32


def measure():
    oft = OneWayFunctionTree(keygen=KeyGenerator(2))
    for i in range(GROUP):
        oft.join(f"m{i}")
    oft_cost = sum(oft.leave(f"m{i}").cost for i in range(EVICTIONS))

    tree = FlatKeyTree(degree=2, keygen=KeyGenerator(2))
    lkh = FlatRekeyer(tree)
    lkh.rekey_batch(joins=[(f"m{i}", None) for i in range(GROUP)])
    lkh_cost = sum(lkh.leave(f"m{i}").cost for i in range(EVICTIONS))
    return {"oft": oft_cost, "lkh-d2": lkh_cost}


def test_oft_vs_lkh(benchmark):
    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = [
        f"Extension — OFT vs binary LKH, {EVICTIONS} sequential evictions "
        f"from a {GROUP}-member group (keys multicast)"
    ]
    for name, cost in results.items():
        lines.append(f"  {name}: {cost} keys")
    lines.append(
        f"  ratio: {results['lkh-d2'] / results['oft']:.2f}x (theory ≈ 2x)"
    )
    emit("oft_vs_lkh", "\n".join(lines))

    assert results["oft"] < results["lkh-d2"]
    assert 1.3 < results["lkh-d2"] / results["oft"] < 3.0
