"""Generate the golden analytic-cost fixture ``tests/golden/analysis_costs.json``.

The fixture pins the expected rekey cost of every analytic scheme over a
grid of edge rows: the Section 3 schemes (one-keytree, QT, TT, PT) in
counted keys at ``K in {0, 1, 10}``, ``alpha in {0, 0.3, 1}`` and
``N in {3, 256, 65536}``; the Section 4 trees (one tree, random split,
loss-homogenized, the Fig. 7 misplaced split and hand-built tree lists)
over WKA-BKR and proactive FEC, with zero departures, the two-class
mixtures at ``alpha in {0, 0.3, 1}``, ``beta in {0, 0.5, 1}`` and the
4-point population of the ``ablation_trees`` table in
``tests/test_fidelity.py``.

``tests/test_analysis_golden.py`` replays every row through
:func:`evaluate` (partition builders and ``scheme_cost``) and demands the
recorded float exactly (``==``).  A row names its scheme and transport,
never the function that priced it, so the fixture outlives any reshaping
of the analysis API.

The values were recorded at commit 895c73f, before the schemes became
lists of partitions priced by one ``scheme_cost``, by the per-family
composition functions of that time; the code that recorded them is this
file as first committed (``git log --diff-filter=A -- <this file>``).
Do not regenerate the fixture to make a change pass; regenerate only when
a change to a cost is intended and reviewed:

    PYTHONPATH=src python tests/golden/generate_analysis_golden.py
"""

import json
from pathlib import Path

FIXTURE = Path(__file__).parent / "analysis_costs.json"

PH, PL = 0.20, 0.02
POPULATION = ((0.30, 0.05), (0.20, 0.15), (0.05, 0.30), (0.01, 0.50))
SECTION3_SCHEMES = ("one-keytree", "QT-scheme", "TT-scheme", "PT-scheme")
CUSTOM_FEC = {"keys_per_packet": 10, "block_size": 8, "proactivity": 1.5, "max_rounds": 30}


def two_class(alpha):
    """The ``(ph, alpha), (pl, 1 - alpha)`` mixture, empty classes dropped."""
    pairs = []
    if alpha > 0:
        pairs.append((PH, alpha))
    if alpha < 1:
        pairs.append((PL, 1.0 - alpha))
    return [list(pair) for pair in pairs]


def grouped_trees(group_size, groups):
    """The 4-point population pooled into one tree per group of classes."""
    trees = []
    for group in groups:
        fraction = sum(POPULATION[i][1] for i in group)
        mixture = [[POPULATION[i][0], POPULATION[i][1] / fraction] for i in group]
        trees.append([group_size * fraction, mixture])
    return trees


def grid():
    """Every row to pin, without its value."""
    rows = []
    for n in (3.0, 256.0, 65536.0):
        for k in (0, 1, 10):
            for alpha in (0.0, 0.3, 1.0):
                for scheme in SECTION3_SCHEMES:
                    rows.append({
                        "transport": "counted", "scheme": scheme,
                        "params": {"group_size": n, "k_periods": k, "alpha": alpha, "degree": 4},
                    })
    for degree in (2, 3, 4, 8):
        for scheme in SECTION3_SCHEMES:
            rows.append({
                "transport": "counted", "scheme": scheme,
                "params": {"group_size": 65536.0, "k_periods": 10, "alpha": 0.8, "degree": degree},
            })

    mixtures = [two_class(0.0), two_class(0.3), two_class(1.0), [list(p) for p in POPULATION]]
    for transport in ("wka-bkr", "fec"):
        for n in (3.0, 256.0, 65536.0):
            for departures in (0.0, 16.0, 256.0):
                base = {"group_size": n, "departures": departures, "degree": 4}
                for mixture in mixtures:
                    rows.append({"transport": transport, "scheme": "one-keytree",
                                 "args": dict(base, mixture=mixture)})
                    rows.append({"transport": transport, "scheme": "loss-homogenized",
                                 "args": dict(base, mixture=mixture)})
                    for count in (1, 2, 3):
                        rows.append({"transport": transport, "scheme": "random-trees",
                                     "args": dict(base, mixture=mixture, tree_count=count)})
                for alpha in (0.0, 0.3, 1.0):
                    for beta in (0.0, 0.5, 1.0):
                        if beta * alpha > 1.0 - alpha:
                            continue  # no room in the low tree for the swap
                        rows.append({"transport": transport, "scheme": "misplaced",
                                     "args": dict(base, high_fraction=alpha, high_loss=PH,
                                                  low_loss=PL, misplaced_fraction=beta)})
                for groups in (((0, 1, 2, 3),), ((0, 1), (2, 3)), ((0,), (1,), (2,), (3,))):
                    rows.append({"transport": transport, "scheme": "trees",
                                 "args": dict(base, trees=grouped_trees(n, groups))})
        for degree in (2, 3):
            base = {"group_size": 4096.0, "departures": 64.0, "degree": degree}
            for scheme in ("one-keytree", "loss-homogenized"):
                rows.append({"transport": transport, "scheme": scheme,
                             "args": dict(base, mixture=two_class(0.3))})
    for scheme in ("one-keytree", "loss-homogenized"):
        rows.append({"transport": "fec", "scheme": scheme, "fec": CUSTOM_FEC,
                     "args": {"group_size": 4096.0, "departures": 64.0, "degree": 4,
                              "mixture": two_class(0.1)}})
    return rows


def evaluate(row):
    """The cost of one row, from the analysis API."""
    from repro.analysis import (
        COUNTED,
        WKA_BKR,
        Fec,
        FecParameters,
        TwoPartitionParameters,
        loss_homogenized_trees,
        misplaced_trees,
        one_tree,
        proportional_trees,
        random_trees,
        scheme_cost,
        two_partition_schemes,
    )

    if row["transport"] == "counted":
        params = TwoPartitionParameters(**row["params"])
        partitions = two_partition_schemes(params)[row["scheme"]]
        return scheme_cost(partitions, COUNTED, params.degree)

    args = dict(row["args"])
    degree = args.pop("degree")
    build = {
        "one-keytree": one_tree,
        "loss-homogenized": loss_homogenized_trees,
        "random-trees": random_trees,
        "misplaced": misplaced_trees,
    }.get(row["scheme"])
    if build is None:
        partitions = proportional_trees(args["trees"], args["departures"])
    else:
        partitions = build(**args)
    if row["transport"] == "wka-bkr":
        return scheme_cost(partitions, WKA_BKR, degree)
    return scheme_cost(partitions, Fec(FecParameters(**row.get("fec", {}))), degree)


def main():
    rows = [dict(row, value=evaluate(row)) for row in grid()]
    lines = ",\n".join(json.dumps(row, sort_keys=True) for row in rows)
    FIXTURE.write_text('{"rows": [\n' + lines + "\n]}\n")
    print(f"wrote {FIXTURE} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
