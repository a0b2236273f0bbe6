"""Checks on the harness itself, at smoke sizes (``run.py --selftest``).

* every workload and metric name in ``BENCHMARK.json`` is well formed,
  used once, and is exactly what a run prints; each ``why`` is the one
  ``workloads.py`` records;
* the traced run's layer self times sum to the epoch wall;
* two runs of one seed make identical payload counts, epoch for epoch,
  traced or not, and another seed makes different ones.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Callable, List

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
EPOCHS = 6
SEEDS = (7, 8)
SUM_TOLERANCE = 0.03


def main(
    benchmark: dict,
    launch: Callable[..., dict],
    named_metrics: Callable,
    same_counts: Callable[[dict, dict], bool],
) -> int:
    failures: List[str] = []

    def expect(holds: bool, failure: str) -> None:
        if not holds:
            failures.append(failure)

    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in benchmark[section]
    ]
    expect(len(set(names)) == len(names), "a name is used twice in BENCHMARK.json")
    for name in names:
        expect(NAME.match(name) is not None, f"malformed name {name!r}")
    expect(
        any(m["name"] == "setup_s" for m in benchmark["end_to_end"]),
        "end_to_end lacks setup_s",
    )

    out = Path(__file__).resolve().parent / "out"
    for entry in benchmark["workloads"]:
        workload = entry["name"]
        before = len(failures)
        how = dict(epochs=EPOCHS, smoke=True)
        first = launch(workload, seed=SEEDS[0], **how)
        again = launch(workload, seed=SEEDS[0], **how)
        other = launch(workload, seed=SEEDS[1], **how)
        traced = launch(workload, seed=SEEDS[0], trace=1, **how)
        for run in (first, again, other, traced):
            named_metrics(run, benchmark)  # raises on any other set of names
            expect(run["correct"], f"{workload}: {run['problems']}")
        expect(first["why"] == entry["why"], f"{workload}: why differs from workloads.py")
        expect(first["series"] == again["series"], f"{workload}: one seed, two payload series")
        expect(first["series"] != other["series"], f"{workload}: the seed changes nothing")
        expect(same_counts(first, traced), f"{workload}: tracing changed the payloads")
        shares = sum(row[4] for row in traced["table"])
        expect(
            abs(shares - 1.0) <= SUM_TOLERANCE,
            f"{workload}: layer self times sum to {shares:.3f} of the epoch wall",
        )
        spans = json.loads((out / f"trace_{workload}.json").read_text(encoding="utf-8"))
        for epoch in spans["epochs"]:
            layers = sum(total[2] for total in epoch["layers"].values())
            expect(
                layers + epoch["self_ns"] == epoch["wall_ns"],
                f"{workload}: epoch {epoch['epoch']} self times do not sum to its wall",
            )
        by_id = {span["id"]: span for span in spans["spans"]}
        for span in spans["spans"]:
            parent = by_id.get(span["parent"])
            expect(
                parent is None
                or (parent["start_ns"] <= span["start_ns"] and span["end_ns"] <= parent["end_ns"]
                    and parent["epoch"] == span["epoch"]),
                f"{workload}: span {span['id']} is not inside its parent",
            )
        print(f"selftest {workload}: {'ok' if len(failures) == before else 'FAILED'}")

    for failure in failures:
        print(f"FAILED: {failure}")
    print("selftest: " + (f"{len(failures)} failures" if failures else "ok"))
    return 1 if failures else 0
