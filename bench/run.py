"""The repo's benchmark: four rekey-epoch workloads, one command.

    python3 bench/run.py                        every workload, tracing off
    python3 bench/run.py --traced               ... then the per-layer traced run
    python3 bench/run.py --workload W --seed S --seconds T --trace 0|1
                                                one run; the last line is one JSON object
    python3 bench/run.py --agreement            the set twice; must agree within the bounds
    python3 bench/run.py --smoke | --selftest   shrunk sizes: functional pass / harness checks

Each run is one fresh ``bench/worker.py`` process (per-workload RSS,
clean GC state) with ``PYTHONHASHSEED=0``, ``PYTHONPATH=src`` and every
``REPRO_*`` variable removed, one at a time.  Names, units and bounds
come from ``BENCHMARK.json``; this file never imports the program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
PIDFILE = OUT / "worker.pid"
DEFAULT_SEED = 20030519
SMOKE_EPOCHS = 5
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    """A run that produced no usable result."""


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def other_worker_alive() -> bool:
    """Whether the worker named in the pid file is still running (two
    workloads at once on this 2-CPU box would time each other)."""
    try:
        pid = int(PIDFILE.read_text())
        return b"worker.py" in Path(f"/proc/{pid}/cmdline").read_bytes()
    except (OSError, ValueError):
        return False


def launch(
    workload: str,
    seed: int,
    seconds: float = 10.0,
    epochs: Optional[int] = None,
    trace: int = 0,
    smoke: bool = False,
) -> dict:
    """Run one workload in a fresh, scrubbed subprocess; returns the
    worker's result document.  The child never outlives this call."""
    if other_worker_alive():
        print("bench: another workload subprocess is still alive", file=sys.stderr)
        sys.exit(2)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    command = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--out", str(OUT),
    ]
    if epochs is not None:
        command += ["--epochs", str(epochs)]
    if smoke:
        command.append("--smoke")
    OUT.mkdir(exist_ok=True)
    child = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        PIDFILE.write_text(str(child.pid))
        stdout, __ = child.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: no result within {WORKER_TIMEOUT_S} s") from None
    finally:
        child.kill()
        child.wait()
        PIDFILE.unlink(missing_ok=True)
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: the worker exited {child.returncode} without a result")
    return json.loads(lines[-1])


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------


def named_metrics(document: dict, benchmark: dict) -> Dict[str, dict]:
    """The run's metrics under the names and units ``BENCHMARK.json``
    fixes; a run that printed another set of names is no result."""
    declared = benchmark["per_layer" if document["trace"] else "end_to_end"]
    measured = document["metrics"]
    if set(measured) != {m["name"] for m in declared}:
        if not document["correct"]:
            return {}  # the program failed before anything could be measured
        raise BenchError(
            f"{document['workload']}: measured names differ from BENCHMARK.json: "
            f"{sorted(set(measured) ^ {m['name'] for m in declared})}"
        )
    return {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}


def print_header() -> None:
    load = ", ".join(f"{x:.2f}" for x in os.getloadavg())
    print(f"# nproc={os.cpu_count()} python={platform.python_version()} loadavg={load}")


def print_run(document: dict, metrics: Dict[str, dict]) -> None:
    epochs = document["epochs"]
    print(
        f"== {document['workload']}  N={document['size']} seed={document['seed']} "
        f"trace={document['trace']}  {epochs} measured epochs "
        f"(tail10 is the mean of the slowest {max(1, epochs // 10)}), "
        f"{document['groups']} set-ups, "
        f"{document['failed']} of {document['attempted']} member-epochs failed"
    )
    as_measured = document["as_measured"]
    if as_measured:
        print(
            f"  times at nominal speed (a reference pass took {document['speed']:.3f} "
            "of its nominal time), then as measured"
        )
    for name, metric in metrics.items():
        measured = f" {as_measured[name]:>14.4f}" if name in as_measured else ""
        print(f"  {name:<28} {metric['value']:>14.4f} {metric['unit']:<6}{measured}")
    if document["table"]:
        print(f"  {'layer':<24} {'calls':>9} {'busy ms':>9} {'self ms':>9} {'share':>7}")
        for layer, calls, busy, self_ms, share in document["table"]:
            print(f"  {layer:<24} {calls:>9.1f} {busy:>9.3f} {self_ms:>9.3f} {share:>7.1%}")
        print(f"  spans written to bench/out/trace_{document['workload']}.json")
    for problem in document["problems"]:
        print(f"  FAILED CHECK: {problem.strip()}")


def run_one(benchmark: dict, workload: str, **how) -> dict:
    document = launch(workload, **how)
    document["named"] = named_metrics(document, benchmark)
    print_run(document, document["named"])
    return document


def same_counts(first: dict, second: dict) -> bool:
    """Two runs of one seed made the same payloads, epoch for epoch, in
    every group both of them measured."""
    compared = 0
    for ours, theirs in zip(first["series"], second["series"]):
        shared = min(len(ours), len(theirs))
        if ours[:shared] != theirs[:shared]:
            return False
        compared += shared
    return compared > 0


# ----------------------------------------------------------------------
# modes
# ----------------------------------------------------------------------


def contract_run(benchmark: dict, args) -> int:
    """One run; the last line is the result object the driver reads."""
    document = run_one(
        benchmark, args.workload, seed=args.seed, seconds=args.seconds,
        epochs=args.epochs, trace=args.trace, smoke=args.smoke,
    )
    print(
        json.dumps(
            {
                "correct": document["correct"],
                "attempted": document["attempted"],
                "failed": document["failed"],
                "metrics": document["named"],
            }
        )
    )
    return 0 if document["correct"] else 1


def full_run(benchmark: dict, args) -> int:
    failures: List[str] = []
    how = dict(seed=args.seed, seconds=args.seconds, epochs=args.epochs, smoke=args.smoke)
    for workload in (w["name"] for w in benchmark["workloads"]):
        plain = run_one(benchmark, workload, **how)
        runs = [plain]
        if args.trace:
            traced = run_one(benchmark, workload, trace=1, **how)
            runs.append(traced)
            if not same_counts(plain, traced):
                failures.append(f"{workload}: the traced run made other payloads")
        failures += [f"{workload}: a check failed" for run in runs if not run["correct"]]
    for failure in failures:
        print(f"FAILED: {failure}")
    print("bench: " + ("FAILED" if failures else "every check passed"))
    return 1 if failures else 0


def agreement(benchmark: dict, args) -> int:
    """The whole set twice, back to back: every end-to-end metric of the
    second pass within its bound of the first, the payloads identical."""
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    failures = 0
    for workload in (w["name"] for w in benchmark["workloads"]):
        first, second = (
            run_one(benchmark, workload, seed=args.seed, seconds=args.seconds)
            for __ in range(2)
        )
        print(f"  {'agreement':<28} {'first':>14} {'second':>14} {'diff':>8} {'bound':>6}")
        for name, bound in bounds.items():
            a, b = first["named"][name]["value"], second["named"][name]["value"]
            diff = abs(b - a) / a
            failures += diff > bound
            print(
                f"  {name:<28} {a:>14.4f} {b:>14.4f} {diff:>8.2%} {bound:>6.2f}"
                f"{'  DISAGREE' if diff > bound else ''}"
            )
        # The counts are means over however many epochs fit in the time,
        # so they are compared exactly on the epochs both passes reached.
        if not (first["correct"] and second["correct"] and same_counts(first, second)):
            failures += 1
            print("  DISAGREE: a check failed or the payloads differ")
    print("bench: " + (f"{failures} disagreements" if failures else "both passes agree"))
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="run this workload only")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="measured seconds per run")
    parser.add_argument("--epochs", type=int, help="fixed measured epochs per group instead of --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--agreement", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 3
    benchmark = load_benchmark()
    if args.seconds is None:
        args.seconds = float(benchmark["run_seconds"])
    if args.smoke and args.epochs is None:
        args.epochs = SMOKE_EPOCHS
    if args.workload is not None and args.workload not in {
        w["name"] for w in benchmark["workloads"]
    }:
        parser.error(f"unknown workload {args.workload!r}")
    # A killed harness must not leave its worker running.
    signal.signal(signal.SIGTERM, lambda *__: sys.exit(143))
    print_header()
    try:
        if args.selftest:
            import selftest

            return selftest.main(benchmark, launch, named_metrics, same_counts)
        if args.agreement:
            return agreement(benchmark, args)
        if args.workload is not None:
            return contract_run(benchmark, args)
        return full_run(benchmark, args)
    except BenchError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
