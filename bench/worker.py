"""One run of one workload, in a process of its own.

``run.py`` spawns this file with a scrubbed environment; it builds the
workload's groups from its seed, sets each up and measures its rekey
epochs for a share of the asked time, checks the program's outputs, and
prints one JSON document as its last line.

Epoch wall time runs from batch close (entry to ``server.rekey``) to
epoch done: ``SimulationMetrics.add`` in the simulator-driven workloads
(payload transported, every in-sync member absorbed and verified), the
end of the sampled DEK checks in the direct-drive one.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from contextlib import ExitStack, contextmanager, nullcontext
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Dict, Iterator, List, Optional
from unittest.mock import patch

from repro import BatchResult, KeyGenerator, Member, RekeyMessage
from repro.crypto.wrap import WrapIndex, unwrap_key, wrap_key
from repro.obs import observe
from repro.transport.codec import decode_rekey_message, encode_rekey_message

from reference import NOMINAL_NS, Reference, at_nominal_speed
from tracing import NullTracer, TracedTransport, Tracer
from workloads import REKEY_PERIOD, WORKLOADS, Workload

MIN_EPOCHS = 10  # measured epochs a timed run never goes below
PROBE_CALLS = 20_000
SETUP_PASSES = 9  # a group's first reference passes give its set-up's speed

CALLS, BUSY, SELF, WEIGHT = range(4)
NOTHING = (0, 0, 0, 0)


class Drive:
    """What both kinds of workload keep per measured epoch."""

    def __init__(self, workload: Workload) -> None:
        self.warmup = workload.warmup
        self.tracer = NullTracer()
        self.epoch = 0
        self.epoch_ns: List[int] = []  # batch close -> epoch done
        self.step_ns: List[int] = []  # the same plus the joins/leaves before it
        self.pass_ns: List[int] = []  # the reference pass timed after it
        self.series: List[List[int]] = []  # [enc keys, wire keys, rounds]
        self.attempted = 0  # member-epochs
        self.failed = 0
        self.problems: List[str] = []
        self.broken = False  # the program raised: nothing more is measured

    def forget_warmup(self) -> None:
        for kept in (self.epoch_ns, self.step_ns, self.pass_ns, self.series, self.problems):
            del kept[:]
        self.attempted = self.failed = 0

    def check(self, holds: bool, problem: str) -> None:
        if not holds:
            self.problems.append(problem)

    @contextmanager
    def traced(self, tracer: Tracer) -> Iterator[None]:
        """Install the layer wrappers for the traced phase only."""
        server = self.server
        with ExitStack() as stack:
            stack.enter_context(patch.object(self, "tracer", tracer))
            for name in ("join", "leave"):
                wrapper = tracer.wrap(f"server.{name}", getattr(server, name))
                stack.enter_context(patch.object(server, name, wrapper))
            for owner, layer, method, extra in (
                (Member, "members.absorb", "absorb", {"weigh": len}),
                (Member, "members.held_versions", "held_versions", {}),
                (WrapIndex, "crypto.closure", "closure", {}),
                (BatchResult, "crypto.index_build", "index", {"coarse": True}),
            ):
                wrapper = tracer.wrap(layer, getattr(owner, method), **extra)
                stack.enter_context(patch.object(owner, method, wrapper))
            self.trace_more(tracer, stack)
            yield


class SimDrive(Drive):
    """A ``GroupRekeyingSimulation`` stepped one rekey period at a time."""

    def __init__(self, workload: Workload, size: int, seed: int) -> None:
        super().__init__(workload)
        self.sim = sim = workload.make(size, seed, workload.warmup)
        self.server = sim.server
        self.rekey = sim.server.rekey
        self.started = 0
        self.clock = lambda: sim.loop.now  # simulated time, for repro.obs
        sim.server.rekey = self.on_rekey
        add = sim.metrics.add

        def on_add(record) -> None:
            add(record)
            self.tracer.end_epoch()
            self.epoch_ns.append(perf_counter_ns() - self.started)

        sim.metrics.add = on_add

    def on_rekey(self, now: float = 0.0):
        self.started = perf_counter_ns()
        self.tracer.begin_epoch()
        return self.rekey(now=now)

    def setup(self) -> None:
        self.sim.run()  # admits the census at t=0, then the warm-up epochs
        self.epoch = self.warmup
        self.forget_warmup()

    def step(self) -> None:
        sim = self.sim
        channel = sim.channel
        draws, losses = channel.receptions + channel.losses, channel.losses
        self.epoch += 1
        started = perf_counter_ns()
        sim.loop.run_until(REKEY_PERIOD * self.epoch)
        self.step_ns.append(perf_counter_ns() - started)
        records = sim.metrics.records
        self.check(len(records) == self.epoch, f"epoch {self.epoch}: no rekey record")
        record = records[-1]
        transported = sim.config.transport is not None
        self.series.append(
            [
                record.cost,
                record.transport_keys if transported else record.cost,
                record.transport_rounds if transported else 1,
            ]
        )
        self.attempted += record.group_size
        self.failed += record.abandoned
        before = records[-2].group_size
        self.check(
            record.group_size == before + record.joined - record.departed
            and record.group_size == self.server.size,
            f"epoch {self.epoch}: group size {record.group_size} is not "
            f"{before} + {record.joined} joined - {record.departed} departed",
        )
        if isinstance(self.tracer, Tracer):
            counts = dict(
                enc_keys=record.cost,
                migrated=record.migrated,
                draws=channel.receptions + channel.losses - draws,
                losses=channel.losses - losses,
            )
            outcome = getattr(sim.config.transport, "last", None)
            if outcome is not None:
                counts.update(
                    rounds=outcome.rounds,
                    packets=outcome.packets_sent,
                    keys_sent=outcome.keys_sent,
                    parity=outcome.parity_packets,
                    late=len(outcome.late),
                    abandoned=len(outcome.abandoned),
                )
            self.tracer.annotate(**counts)

    def trace_more(self, tracer: Tracer, stack: ExitStack) -> None:
        sim = self.sim
        rekey = tracer.wrap("server.rekey", self.rekey, coarse=True)
        stack.enter_context(patch.object(self, "rekey", rekey))
        multicast = tracer.wrap("network.multicast", sim.channel.multicast)
        stack.enter_context(patch.object(sim.channel, "multicast", multicast))
        if sim.config.transport is not None:
            delegate = TracedTransport(sim.config.transport, tracer)
            stack.enter_context(patch.object(sim.config, "transport", delegate))

    def final_checks(self) -> None:
        sim, server = self.sim, self.server
        if sim.config.verify:
            self.check(
                sim.metrics.verification_checks == self.epoch,
                f"verified {sim.metrics.verification_checks} of {self.epoch} epochs",
            )
        if hasattr(server, "s_size"):  # the two-partition server
            self.check(
                server.s_size + server.l_size == server.size,
                f"partitions hold {server.s_size} + {server.l_size} members, "
                f"the server {server.size}",
            )
            migrated = sum(r.migrated for r in sim.metrics.records)
            self.check(migrated > 0, "no member ever migrated from S to L")


class DirectDrive(Drive):
    """The key server driven by the harness: churn in, payload through the
    wire codec, sampled members absorb and are checked against the DEK."""

    def __init__(self, workload: Workload, size: int, seed: int) -> None:
        super().__init__(workload)
        self.server, self.schedule = workload.make(size, seed, workload.warmup)
        self.members: Dict[str, Member] = {}
        self.clock = None

    def setup(self) -> None:
        server = self.server
        keys = {
            member_id: server.join(member_id, at_time=0.0).individual_key
            for member_id in self.schedule.initial
        }
        result = server.rekey(now=0.0)
        for cohort in self.schedule.tracked:
            for member_id in cohort:
                self.members[member_id] = Member(member_id, keys[member_id])
        index = result.index()
        for member in self.members.values():
            member.absorb(result.encrypted_keys, index=index)
        for __ in range(self.warmup):
            self.step()
        self.check(not self.failed, "a tracked member missed the DEK during set-up")
        problems = list(self.problems)
        self.forget_warmup()
        self.problems.extend(problems)

    def step(self) -> None:
        server, tracer = self.server, self.tracer
        plan = self.schedule.next_epoch()  # input generation: not timed
        self.epoch += 1
        now = REKEY_PERIOD * self.epoch
        size_before = server.size
        started = perf_counter_ns()
        for member_id in plan.leavers:
            server.leave(member_id, at_time=now)
        fresh = {
            member_id: server.join(member_id, at_time=now).individual_key
            for member_id in plan.joiners
        }
        closed = perf_counter_ns()
        tracer.begin_epoch()
        with tracer.span("server.rekey"):
            result = server.rekey(now=now)
        with tracer.span("codec.encode"):
            wire = encode_rekey_message(
                RekeyMessage(
                    group=server.group,
                    epoch=result.epoch,
                    encrypted_keys=result.encrypted_keys,
                    joined=result.joined,
                    departed=result.departed,
                )
            )
        with tracer.span("codec.decode"):
            message = decode_rekey_message(wire)
        with tracer.span("crypto.index_build"):
            index = message.index()
        evicted = [self.members.pop(member_id) for member_id in plan.evicted]
        for member_id in plan.admitted:
            self.members[member_id] = Member(member_id, fresh[member_id])
        for member in self.members.values():
            member.absorb(message.encrypted_keys, index=index)
        for member in evicted:
            member.absorb(message.encrypted_keys, index=index)
        dek = server.group_key()
        missing = sum(
            not member.holds(dek.key_id, dek.version)
            for member in self.members.values()
        )
        leaked = sum(member.holds(dek.key_id, dek.version) for member in evicted)
        tracer.end_epoch()
        done = perf_counter_ns()
        self.epoch_ns.append(done - closed)
        self.step_ns.append(done - started)
        self.series.append([result.cost, result.cost, 1])
        self.attempted += len(self.members) + len(evicted)
        self.failed += missing + leaked
        self.check(not missing, f"epoch {self.epoch}: {missing} members lack the DEK")
        self.check(not leaked, f"epoch {self.epoch}: {leaked} evictees hold the DEK")
        self.check(
            (message.joined, message.departed) == (plan.joiners, plan.leavers)
            and server.size == size_before,
            f"epoch {self.epoch}: the decoded roster is not the generated churn",
        )
        if isinstance(tracer, Tracer):
            tracer.annotate(enc_keys=result.cost, wire_bytes=len(wire))

    def trace_more(self, tracer: Tracer, stack: ExitStack) -> None:
        pass  # step() opens the coarse spans itself

    def final_checks(self) -> None:
        pass


# ----------------------------------------------------------------------
# measuring
# ----------------------------------------------------------------------


def measure(
    drive: Drive, seconds: float, epochs: Optional[int], reference: Optional[Reference] = None
) -> range:
    """Step ``epochs`` times, or for ``seconds`` (at least ``MIN_EPOCHS``),
    timing one ``reference`` pass after each; returns the positions of
    the epochs measured.

    Anything the program raises ends the run and fails every member of
    the epoch it interrupted."""
    first = len(drive.epoch_ns)
    deadline = perf_counter() + seconds
    while not drive.broken:
        done = len(drive.epoch_ns) - first
        if done >= (epochs if epochs is not None else MIN_EPOCHS) and (
            epochs is not None or perf_counter() >= deadline
        ):
            break
        try:
            drive.step()
        except Exception:  # the harness boundary: record, report, stop
            drive.problems.append(traceback.format_exc(limit=4))
            size = drive.server.size
            drive.attempted += size
            drive.failed += size
            drive.broken = True
            del drive.epoch_ns[len(drive.step_ns):]  # the epoch it interrupted
        else:
            if reference is not None:
                drive.pass_ns.append(reference.run())
    return range(first, len(drive.epoch_ns))


def p50_ms(epoch_ns: List[int]) -> float:
    return statistics.median(epoch_ns) / 1e6 if epoch_ns else 0.0


def tail10_ms(epoch_ns: List[int]) -> float:
    """Mean of the slowest tenth of the epochs.

    Collector pauses make the epoch times of the large workloads
    bimodal with about one slow epoch in ten, so a 90th percentile sits
    on the edge between the two modes and jumps between them from run to
    run; the mean beyond it moves smoothly with how many epochs are slow
    and with how slow they are."""
    slowest = sorted(epoch_ns)[-max(1, len(epoch_ns) // 10):]
    return statistics.fmean(slowest) / 1e6


class Times:
    """The timed parts of a run: set-ups, epochs, steps (epoch plus the
    joins and leaves before it)."""

    def __init__(self) -> None:
        self.setups: List[float] = []
        self.epoch_ns: List[float] = []
        self.step_ns: List[float] = []

    def metrics(self) -> Dict[str, float]:
        return {
            "setup_s": statistics.median(self.setups),
            "epoch_ms_p50": p50_ms(self.epoch_ns),
            "epoch_ms_tail10": tail10_ms(self.epoch_ns),
            "epochs_per_s": len(self.step_ns) / (sum(self.step_ns) / 1e9),
        }


class Results:
    """What the groups of one run add up to."""

    def __init__(self) -> None:
        self.measured = Times()
        self.nominal = Times()  # the same at nominal speed
        self.pass_ns: List[int] = []
        self.series: List[List[List[int]]] = []  # one list of epochs per group
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def take(self, drive: Drive, setup_s: float) -> None:
        measured, nominal = self.measured, self.nominal
        measured.setups.append(setup_s)
        measured.epoch_ns += drive.epoch_ns
        measured.step_ns += drive.step_ns
        if drive.pass_ns:
            # The set-up ran just before the group's first epochs.
            speed = statistics.median(drive.pass_ns[:SETUP_PASSES]) / NOMINAL_NS
            nominal.setups.append(setup_s / speed)
            nominal.epoch_ns += at_nominal_speed(drive.epoch_ns, drive.pass_ns)
            nominal.step_ns += at_nominal_speed(drive.step_ns, drive.pass_ns)
            self.pass_ns += drive.pass_ns
        self.series.append(drive.series)
        self.attempted += drive.attempted
        self.failed += drive.failed
        self.problems += drive.problems


def end_to_end(results: Results) -> Dict[str, float]:
    if len(results.nominal.epoch_ns) < 2:
        return {}  # the program failed at once; the run is reported incorrect
    enc, wire, rounds = (
        statistics.fmean(column)
        for column in zip(*(epoch for group in results.series for epoch in group))
    )
    return dict(
        results.nominal.metrics(),
        enc_keys_per_epoch=enc,
        wire_keys_per_epoch=wire,
        delivery_rounds_mean=rounds,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def crypto_probe() -> Dict[str, float]:
    """Direct cost of one wrap and one unwrap, outside any workload."""
    keygen = KeyGenerator()
    wrapping, payload = keygen.generate("probe/wrapping"), keygen.generate("probe/payload")
    started = perf_counter_ns()
    for __ in range(PROBE_CALLS):
        encrypted = wrap_key(wrapping, payload)
    wrapped = perf_counter_ns()
    for __ in range(PROBE_CALLS):
        unwrap_key(wrapping, encrypted)
    unwrapped = perf_counter_ns()
    return {
        "crypto.wrap_us": (wrapped - started) / PROBE_CALLS / 1e3,
        "crypto.unwrap_us": (unwrapped - wrapped) / PROBE_CALLS / 1e3,
    }


def per_layer(tracer: Tracer, epoch_ns: List[int], step_ns: List[int]):
    """Per-epoch means of every layer's time and work, and the table
    whose self times sum to the epoch wall.  ``epoch_ns`` is the drive's
    own clock around the same epochs: what the frames miss of it is
    ``trace.unaccounted_share``."""
    epochs = tracer.epochs
    n = len(epochs)

    def total(layer: str, field: int, bucket: str = "layers") -> int:
        return sum(e[bucket].get(layer, NOTHING)[field] for e in epochs)

    def count(name: str) -> int:
        return sum(e["counts"].get(name, 0) for e in epochs)

    def ms(ns: float) -> float:
        return ns / n / 1e6

    wall = sum(e["wall_ns"] for e in epochs)
    epoch_self = sum(e["self_ns"] for e in epochs)
    layers = sorted({name for e in epochs for name in e["layers"]})
    accounted = epoch_self + sum(total(layer, SELF) for layer in layers)
    between = sum(step_ns) - wall
    churn = total("server.join", BUSY, "between") + total("server.leave", BUSY, "between")
    enc_keys = count("enc_keys")
    draws = count("draws")
    metrics = {
        "server.rekey_ms": ms(total("server.rekey", BUSY)),
        "server.rekey_share": ratio(total("server.rekey", BUSY), wall),
        "server.enc_keys": enc_keys / n,
        "server.us_per_enc_key": ratio(total("server.rekey", BUSY) / 1e3, enc_keys),
        "server.join_us": ratio(
            total("server.join", BUSY, "between") / 1e3,
            total("server.join", CALLS, "between"),
        ),
        "server.leave_us": ratio(
            total("server.leave", BUSY, "between") / 1e3,
            total("server.leave", CALLS, "between"),
        ),
        "server.migrated": count("migrated") / n,
        "crypto.index_build_ms": ms(total("crypto.index_build", BUSY)),
        "crypto.closure_ms": ms(total("crypto.closure", BUSY)),
        "crypto.closure_calls": total("crypto.closure", CALLS) / n,
        "members.absorb_ms": ms(total("members.absorb", BUSY)),
        "members.absorb_calls": total("members.absorb", CALLS) / n,
        "members.keys_learned": total("members.absorb", WEIGHT) / n,
        "members.us_per_key_learned": ratio(
            total("members.absorb", BUSY) / 1e3, total("members.absorb", WEIGHT)
        ),
        "members.held_versions_ms": ms(total("members.held_versions", BUSY)),
        "transport.run_ms": ms(total("transport.run", BUSY)),
        "transport.self_ms": ms(total("transport.run", SELF)),
        "transport.rounds": count("rounds") / n,
        "transport.packets": count("packets") / n,
        "transport.keys_sent": count("keys_sent") / n,
        "transport.parity_packets": count("parity") / n,
        "transport.replication_ratio": ratio(count("keys_sent"), enc_keys),
        "transport.late_receivers": count("late") / n,
        "transport.abandoned": count("abandoned") / n,
        "network.multicast_ms": ms(total("network.multicast", BUSY)),
        "network.multicast_calls": total("network.multicast", CALLS) / n,
        "network.draws": draws / n,
        "network.loss_ratio": ratio(count("losses"), draws),
        "codec.encode_ms": ms(total("codec.encode", BUSY)),
        "codec.decode_ms": ms(total("codec.decode", BUSY)),
        "codec.wire_bytes": count("wire_bytes") / n,
        "codec.bytes_per_key": ratio(count("wire_bytes"), enc_keys),
        "sim.epoch_self_ms": ms(epoch_self),
        "sim.between_epochs_ms": ms(between),
        "sim.between_self_ms": ms(between - churn),
        "trace.unaccounted_share": 1.0 - ratio(accounted, sum(epoch_ns)),
    }
    table = [
        [layer, total(layer, CALLS) / n, ms(total(layer, BUSY)),
         ms(total(layer, SELF)), ratio(total(layer, SELF), wall)]
        for layer in layers
    ]
    table.append(["sim (epoch self)", 1.0, ms(wall), ms(epoch_self), ratio(epoch_self, wall)])
    return metrics, table


def traced_run(drive: Drive, args, out: Path, header: dict):
    """Short blocks of epochs take turns in three modes on one group —
    tracing off, the layer wrappers on, ``repro.obs`` on — so that the
    group's drift over the run falls on all three alike; their medians
    give the cost of the wrappers and of the program's instrumentation."""
    tracer = Tracer()
    modes = (
        ("plain", 2, nullcontext),
        ("traced", 4, lambda: drive.traced(tracer)),
        ("observed", 2, lambda: observe(clock=drive.clock)),
    )
    taken: Dict[str, List[int]] = {name: [] for name, __, __ in modes}
    deadline = perf_counter() + args.seconds
    while not drive.broken:
        for name, block, mode in modes:
            with mode():
                taken[name].extend(measure(drive, 0.0, block))
        if args.epochs is not None:
            if len(drive.epoch_ns) >= args.epochs:
                break
        elif perf_counter() >= deadline:
            break
    if not tracer.epochs:
        return {}, []

    def p50(name: str) -> float:
        return p50_ms([drive.epoch_ns[i] for i in taken[name]])

    metrics, table = per_layer(
        tracer,
        [drive.epoch_ns[i] for i in taken["traced"]],
        [drive.step_ns[i] for i in taken["traced"]],
    )
    metrics.update(crypto_probe())
    metrics["trace.overhead_ratio"] = ratio(p50("traced"), p50("plain"))
    metrics["obs.enabled_epoch_ratio"] = ratio(p50("observed"), p50("plain"))
    tracer.dump(out / f"trace_{args.workload}.json", header)
    return metrics, table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--epochs", type=int, help="fixed epochs per group instead of --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    size = workload.smoke_size if args.smoke else workload.size
    kind = DirectDrive if workload.direct else SimDrive
    header = {
        "workload": workload.name,
        "why": workload.why,
        "size": size,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": os.getloadavg(),
    }
    # A group's key counts wander with its size and its tree's age, slowly
    # enough that one group's run is one sample of them.  Several groups,
    # each measured while still near its (same) starting state, make the
    # run's means steady from seed to seed; their set-ups give setup_s a
    # median.  The traced run needs neither and follows one group.
    groups = 1 if args.smoke or args.trace else workload.groups
    reference = None if args.trace else Reference()
    results = Results()
    metrics: Dict[str, float] = {}
    table: list = []
    for group in range(groups):
        gc.collect()  # the previous group is gone before this one is timed
        started = perf_counter()
        drive = kind(workload, size, args.seed * 100 + group)
        drive.setup()
        setup = perf_counter() - started
        gc.collect()
        if args.trace:
            metrics, table = traced_run(drive, args, args.out, header)
        else:
            measure(drive, args.seconds / groups, args.epochs, reference)
        drive.final_checks()
        results.take(drive, setup)
        del drive
    as_measured: Dict[str, float] = {}
    if not args.trace:
        metrics = end_to_end(results)
        if metrics:
            as_measured = results.measured.metrics()
    document = dict(
        header,
        correct=not results.problems and not results.failed,
        attempted=max(1, results.attempted),
        failed=results.failed,
        problems=results.problems[:5],
        metrics=metrics,
        as_measured=as_measured,
        epochs=len(results.measured.epoch_ns),
        groups=groups,
        series=results.series,
        speed=statistics.median(results.pass_ns) / NOMINAL_NS if results.pass_ns else None,
        table=table,
    )
    print(json.dumps(document))
    return 0 if document["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
