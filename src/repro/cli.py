"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``figures``   regenerate any (or all) of the paper's figure tables
``headlines`` print the paper-vs-reproduction headline numbers
``selfcheck`` run the security-conformance battery over every scheme
``validate``  run the model-vs-simulation cross validation
``simulate``  run one end-to-end simulated session and summarize it
``metrics``   run a small observed session and dump the metrics exposition
``trace``     generate a synthetic MBone-style membership trace
``trace summarize`` summarize an observability trace file (spans/events)
``trace export`` convert a trace file to Chrome trace-event JSON (Perfetto)
``obs serve`` run an observed session with a live Prometheus endpoint
``tracestats`` summarize a trace file ([AA97]-style statistics)

``simulate`` and ``chaos`` accept ``--trace [FILE]`` and
``--metrics [FILE]`` to run under the :mod:`repro.obs` observability
layer and write a JSONL trace / Prometheus exposition of the run, plus
``--serve [PORT]`` to expose the live metrics registry over HTTP while
the run is in flight.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import List, Optional

from repro.experiments import FIGURES

#: scheme names :func:`repro.server.build_server` takes
SCHEMES = ("one", "qt", "tt", "pt", "losshomog", "random-trees")


def _cmd_figures(args: argparse.Namespace) -> int:
    wanted = FIGURES if args.figure == "all" else (args.figure,)
    for index, name in enumerate(wanted):
        if index:
            print()
        sweep, precision = FIGURES[name]
        print(sweep().format_table(precision=precision))
    return 0


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    from repro.testing import (
        InvariantViolation,
        run_conformance,
        scheme_specs,
    )

    specs = scheme_specs()
    if args.scheme != "all":
        specs = [spec for spec in specs if spec.name == args.scheme]
    failures = 0
    for spec in specs:
        try:
            finished = run_conformance(spec, structural_checks=not args.no_structural)
        except InvariantViolation as exc:
            print(f"FAIL {spec.name}: {exc}")
            failures += 1
            continue
        cost = sum(h.total_cost() for h in finished.values())
        print(
            f"ok   {spec.name}: {len(finished)} scenarios, "
            f"{sum(h.epochs for h in finished.values())} batches, "
            f"{cost} encrypted keys"
        )
    return 1 if failures else 0


def _cmd_headlines(args: argparse.Namespace) -> int:
    from repro.experiments.headlines import format_headlines

    print(format_headlines())
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.experiments.validation import (
        fast_validations,
        over_tolerance,
        run_all_validations,
        validation_table,
    )

    if args.fast:
        results = fast_validations()
    else:
        results = run_all_validations(workers=args.workers)
    print(validation_table(results))
    worst = max(result.relative_error for result in results.values())
    print(f"worst relative error: {worst * 100:.1f}%")
    failed = over_tolerance(results)
    if failed:
        print(f"over tolerance: {', '.join(failed)}")
    return 1 if failed else 0


def _build_transport(name: str):
    from repro.transport.fec import ProactiveFecProtocol
    from repro.transport.multisend import MultiSendProtocol
    from repro.transport.wka_bkr import WkaBkrProtocol

    if name == "none":
        return None
    if name == "wka-bkr":
        return WkaBkrProtocol(keys_per_packet=16)
    if name == "multi-send":
        return MultiSendProtocol(keys_per_packet=16, replication=2)
    if name == "fec":
        return ProactiveFecProtocol(keys_per_packet=16, block_size=8)
    raise ValueError(f"unknown transport {name!r}")


@contextmanager
def _observed(args: argparse.Namespace):
    """Run the body under :func:`repro.obs.observe` when requested.

    Activates the observability layer iff the command was given
    ``--trace``, ``--metrics`` and/or ``--serve``; on exit writes the
    requested artifacts.  ``--serve`` additionally answers
    ``GET /metrics`` on a daemon thread for the duration of the run, so
    operators scrape the live registry instead of waiting for the final
    exposition file.  Yields the :class:`repro.obs.Observation` bundle
    (or ``None`` when observability stays off, keeping the hot path at
    its disabled-probe cost).
    """
    trace_path = getattr(args, "trace_out", None)
    metrics_path = getattr(args, "metrics_out", None)
    serve_port = getattr(args, "serve_port", None)
    if trace_path is None and metrics_path is None and serve_port is None:
        yield None
        return
    import repro.obs as obs

    endpoint = None
    with obs.observe() as bundle:
        if serve_port is not None:
            from repro.obs.serve import MetricsServer

            endpoint = MetricsServer(
                registry=bundle.registry, port=serve_port
            ).start()
            print(f"serving live metrics at {endpoint.url}", flush=True)
        try:
            yield bundle
        finally:
            if endpoint is not None:
                endpoint.stop()
    if trace_path is not None:
        count = obs.write_trace(bundle, trace_path)
        print(f"wrote {count} trace records to {trace_path}")
    if metrics_path is not None:
        obs.write_metrics(bundle.registry, metrics_path)
        print(f"wrote metrics exposition to {metrics_path}")


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.members.durations import TwoClassDuration
    from repro.members.population import LossPopulation
    from repro.server import build_server
    from repro.sim.simulation import GroupRekeyingSimulation, SimulationConfig

    if args.quick:
        args.horizon = min(args.horizon, 600.0)
        args.warmup = min(args.warmup, 2)
    server = build_server(args.scheme, args.degree, args.s_period)
    transport = _build_transport(args.transport)
    needs_population = transport is not None or args.scheme in (
        "losshomog",
        "random-trees",
    )
    if args.cost_only and transport is not None:
        print("--cost-only cannot be combined with a transport", file=sys.stderr)
        return 2
    config = SimulationConfig(
        arrival_rate=args.arrival_rate,
        rekey_period=args.period,
        horizon=args.horizon,
        duration_model=TwoClassDuration(args.short_mean, args.long_mean, args.alpha),
        loss_population=LossPopulation.two_point() if needs_population else None,
        transport=transport,
        verify=not args.no_verify and not args.cost_only,
        seed=args.seed,
        cost_only=args.cost_only,
    )
    with _observed(args):
        metrics = GroupRekeyingSimulation(server, config).run()
    skip = min(len(metrics.records) // 2, args.warmup)
    print(f"scheme:             {server.name}")
    print(f"rekeyings:          {metrics.rekey_count}")
    print(f"joins/departures:   {metrics.joins_total}/{metrics.departures_total}")
    print(f"mean group size:    {metrics.mean_group_size(skip=skip):.0f}")
    print(f"server keys total:  {metrics.total_cost}")
    print(f"mean keys/rekeying: {metrics.mean_cost(skip=skip):.1f}")
    if transport is not None:
        print(f"wire keys total:    {metrics.total_transport_keys}")
    if not args.no_verify and not args.cost_only:
        print(f"security checks:    {metrics.verification_checks} passed")
    breakdown = metrics.breakdown_totals()
    if breakdown:
        print("cost breakdown:     " + ", ".join(
            f"{label}={count}" for label, count in sorted(breakdown.items())
        ))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.chaos import STANDARD_SCHEMES, run_chaos
    from repro.faults.schedule import STANDARD_SCHEDULES

    schemes = (
        tuple(args.schemes.split(",")) if args.schemes else STANDARD_SCHEMES
    )
    schedules = (
        tuple(args.schedules.split(","))
        if args.schedules
        else tuple(STANDARD_SCHEDULES) + ("randomized",)
    )
    if args.quick:
        schemes = schemes[:2]
        schedules = tuple(
            s for s in schedules if s in ("crash-restore", "blackout-resync")
        ) or schedules[:2]
    with _observed(args):
        report = run_chaos(
            seed=args.seed,
            horizon=args.horizon,
            schemes=schemes,
            schedules=schedules,
            out_path=args.out,
            progress=print,
        )
    print(f"wrote {args.out}")
    for run in report["runs"]:
        recoveries = run["recoveries"].get("count", 0)
        line = (
            f"{run['scheme']:>10} x {run['schedule']:<16} "
            f"rekeyings={run['rekeyings']:<3} crashes={run['server_crashes']} "
            f"abandoned={run['abandoned']:<3} recovered={recoveries:<3} "
            f"violations={len(run['violations'])}"
        )
        if recoveries:
            line += (
                f"  (latency mean {run['recoveries']['latency_mean_s']:.0f}s,"
                f" {run['recoveries']['keys_mean']:.1f} keys/recovery)"
            )
        ttd = run.get("time_to_new_dek", {})
        if ttd.get("count"):
            line += (
                f"  dek p50 {ttd['p50_s']:.1f}s p99 {ttd['p99_s']:.1f}s"
            )
        print(line)
    print(
        f"totals: {report['server_crashes_total']} crash-restores, "
        f"{report['abandoned_total']} abandonments, "
        f"{report['recoveries_total']} unicast recoveries, "
        f"{report.get('abandoned_unrecovered_total', 0)} never recovered, "
        f"{report['violations_total']} invariant violations"
    )
    for run in report["runs"]:
        for violation in run["violations"]:
            print(
                f"VIOLATION [{run['scheme']} x {run['schedule']}]: {violation}",
                file=sys.stderr,
            )
    if report["violations_total"]:
        return 1
    if report["recoveries_total"] == 0:
        print(
            "chaos sweep exercised no abandonment->resync path; "
            "widen the schedules or horizon",
            file=sys.stderr,
        )
        return 1
    return 0


def _small_session(args: argparse.Namespace):
    """The session ``metrics`` and ``obs serve`` observe: ``args.scheme``
    over ``args.transport`` for ``args.horizon`` seconds, unverified."""
    from repro.members.durations import TwoClassDuration
    from repro.members.population import LossPopulation
    from repro.server import build_server
    from repro.sim.simulation import GroupRekeyingSimulation, SimulationConfig

    transport = _build_transport(args.transport)
    config = SimulationConfig(
        arrival_rate=1.0,
        rekey_period=60.0,
        horizon=args.horizon,
        duration_model=TwoClassDuration(),
        loss_population=(
            LossPopulation.two_point() if transport is not None else None
        ),
        transport=transport,
        verify=False,
        seed=args.seed,
    )
    return GroupRekeyingSimulation(build_server(args.scheme), config)


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Run a small observed session and dump the metrics exposition."""
    import json

    import repro.obs as obs

    with obs.observe() as bundle:
        _small_session(args).run()
    if args.format == "json":
        print(json.dumps(bundle.registry.to_json(), indent=2, sort_keys=True))
    else:
        sys.stdout.write(bundle.registry.to_prometheus())
    return 0


def _cmd_trace_summarize(argv: List[str]) -> int:
    """``repro trace summarize <file>`` — dispatched before argparse in
    :func:`main` because the ``trace`` subcommand's positional output path
    (the synthetic-membership-trace generator) predates it."""
    import repro.obs as obs
    from repro.obs.report import build_summary, format_summary

    parser = argparse.ArgumentParser(
        prog="repro trace summarize",
        description="summarize an observability trace file",
    )
    parser.add_argument("tracefile", help="JSONL trace written by --trace")
    parser.add_argument(
        "--top", type=int, default=10, help="span names to list by total wall time"
    )
    args = parser.parse_args(argv)
    records = obs.read_trace(args.tracefile)
    obs.validate_trace_records(records)
    print(format_summary(build_summary(records, top=args.top)))
    return 0


def _cmd_trace_export(argv: List[str]) -> int:
    """``repro trace export <file>`` — Chrome trace-event JSON for Perfetto.

    Dispatched before argparse in :func:`main`, like ``trace summarize``.
    """
    import repro.obs as obs
    from repro.obs.chrometrace import export_chrome_trace, validate_chrome_trace

    parser = argparse.ArgumentParser(
        prog="repro trace export",
        description="convert an observability trace to Chrome trace-event "
        "JSON, loadable at https://ui.perfetto.dev",
    )
    parser.add_argument("tracefile", help="JSONL trace written by --trace")
    parser.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="output path (default: <tracefile>.chrome.json)",
    )
    args = parser.parse_args(argv)
    records = obs.read_trace(args.tracefile)
    obs.validate_trace_records(records)
    out = args.out or f"{args.tracefile}.chrome.json"
    doc = export_chrome_trace(records, out)
    counts = validate_chrome_trace(doc)
    print(
        f"wrote {out}: {counts.get('X', 0)} spans, "
        f"{counts.get('i', 0)} instant events "
        "(open at https://ui.perfetto.dev)"
    )
    return 0


def _cmd_obs_serve(argv: List[str]) -> int:
    """``repro obs serve`` — an observed session behind a live endpoint.

    Runs the same small session as ``repro metrics`` but answers
    ``GET /metrics`` on ``--port`` while it runs (and for ``--linger``
    seconds afterwards), so a real Prometheus — or a curl-wielding
    operator — can watch rekey latency histograms fill in live.
    """
    import time

    import repro.obs as obs
    from repro.obs.serve import MetricsServer

    parser = argparse.ArgumentParser(
        prog="repro obs serve",
        description="run an observed session with a live Prometheus endpoint",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=9109, help="0 picks an ephemeral port"
    )
    parser.add_argument(
        "--scheme",
        choices=SCHEMES,
        default="tt",
    )
    parser.add_argument(
        "--transport",
        choices=("none", "wka-bkr", "multi-send", "fec"),
        default="wka-bkr",
    )
    parser.add_argument("--horizon", type=float, default=600.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--linger",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="keep serving after the session finishes (default: exit)",
    )
    args = parser.parse_args(argv)

    with obs.observe() as bundle:
        with MetricsServer(
            registry=bundle.registry, host=args.host, port=args.port
        ) as endpoint:
            print(f"serving live metrics at {endpoint.url}", flush=True)
            metrics = _small_session(args).run()
            print(
                f"session finished: {metrics.rekey_count} rekeyings, "
                f"{metrics.joins_total} joins, "
                f"{metrics.departures_total} departures",
                flush=True,
            )
            if args.linger > 0:
                print(f"lingering {args.linger:.0f}s for scrapes ...")
                time.sleep(args.linger)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.members.durations import TwoClassDuration
    from repro.members.trace import MBoneTraceGenerator, write_trace

    generator = MBoneTraceGenerator(
        duration_model=TwoClassDuration(args.short_mean, args.long_mean, args.alpha),
        arrival_rate=args.arrival_rate,
        seed=args.seed,
    )
    records = generator.generate(args.length)
    write_trace(records, args.output)
    print(f"wrote {len(records)} membership records to {args.output}")
    return 0


def _cmd_tracestats(args: argparse.Namespace) -> int:
    from repro.members.trace import read_trace, trace_statistics

    stats = trace_statistics(read_trace(args.trace))
    print(f"members:          {stats.members}")
    print(f"mean duration:    {stats.mean_duration:.1f} s")
    print(f"median duration:  {stats.median_duration:.1f} s")
    print(f"short fraction:   {stats.short_fraction:.2f}")
    print(f"peak concurrency: {stats.max_concurrency}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Performance Optimizations for Group Key "
            "Management Schemes for Secure Multicast' (ICDCS 2003)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_obs_flags(p: argparse.ArgumentParser, stem: str) -> None:
        p.add_argument(
            "--trace",
            dest="trace_out",
            nargs="?",
            const=f"{stem}_trace.jsonl",
            default=None,
            metavar="FILE",
            help="record an observability trace (spans + events + metrics "
            f"snapshot) to FILE (default {stem}_trace.jsonl)",
        )
        p.add_argument(
            "--metrics",
            dest="metrics_out",
            nargs="?",
            const=f"{stem}_metrics.prom",
            default=None,
            metavar="FILE",
            help="write the Prometheus metrics exposition to FILE "
            f"(default {stem}_metrics.prom)",
        )
        p.add_argument(
            "--serve",
            dest="serve_port",
            type=int,
            nargs="?",
            const=0,
            default=None,
            metavar="PORT",
            help="answer GET /metrics with the live registry while the "
            "run is in flight (PORT 0 or omitted = ephemeral)",
        )

    p = sub.add_parser("figures", help="regenerate the paper's figure tables")
    p.add_argument(
        "figure", choices=tuple(FIGURES) + ("all",), nargs="?", default="all"
    )
    p.set_defaults(func=_cmd_figures)

    p = sub.add_parser("headlines", help="paper-vs-reproduction headline numbers")
    p.set_defaults(func=_cmd_headlines)

    p = sub.add_parser(
        "selfcheck",
        help="run the security-conformance battery over the key-server schemes",
    )
    from repro.testing.conformance import SCHEME_FACTORIES

    p.add_argument(
        "--scheme", choices=tuple(SCHEME_FACTORIES) + ("all",), default="all"
    )
    p.add_argument(
        "--no-structural",
        action="store_true",
        help="skip per-batch tree structure validation",
    )
    p.set_defaults(func=_cmd_selfcheck)

    p = sub.add_parser("validate", help="model-vs-simulation cross validation")
    p.add_argument("--fast", action="store_true", help="small configurations only")
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="run the checks over a process pool of N workers "
        "(results are identical to --workers 1)",
    )
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("simulate", help="run one end-to-end simulated session")
    p.add_argument(
        "--scheme",
        choices=SCHEMES,
        default="tt",
    )
    p.add_argument("--transport", choices=("none", "wka-bkr", "multi-send", "fec"), default="none")
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--s-period", type=float, default=600.0)
    p.add_argument("--arrival-rate", type=float, default=1.0)
    p.add_argument("--period", type=float, default=60.0)
    p.add_argument("--horizon", type=float, default=3600.0)
    p.add_argument("--alpha", type=float, default=0.8)
    p.add_argument("--short-mean", type=float, default=180.0)
    p.add_argument("--long-mean", type=float, default=3600.0)
    p.add_argument("--warmup", type=int, default=10, help="rekeyings to skip in means")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-verify", action="store_true")
    p.add_argument(
        "--cost-only",
        action="store_true",
        help="skip receiver state machines; count server cost only "
        "(implies --no-verify, incompatible with a transport)",
    )
    p.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized session (caps --horizon at 600 s and --warmup at 2)",
    )
    add_obs_flags(p, "simulate")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "chaos",
        help="run fault-injection schedules against the schemes and check "
        "the security invariants under fire (emits BENCH_chaos.json)",
    )
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--horizon", type=float, default=1800.0)
    p.add_argument(
        "--schemes",
        default=None,
        help="comma list (default: one,tt,pt,losshomog,qt)",
    )
    p.add_argument(
        "--schedules",
        default=None,
        help="comma list of fault schedules (default: all canned + randomized)",
    )
    p.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: 2 schemes x 2 schedules",
    )
    p.add_argument(
        "--out", default="BENCH_chaos.json", help="where to write the report"
    )
    add_obs_flags(p, "chaos")
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser(
        "metrics",
        help="run a small observed session and print the metrics exposition",
    )
    p.add_argument(
        "--scheme",
        choices=SCHEMES,
        default="tt",
    )
    p.add_argument(
        "--transport",
        choices=("none", "wka-bkr", "multi-send", "fec"),
        default="wka-bkr",
    )
    p.add_argument("--horizon", type=float, default=600.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--format",
        choices=("prom", "json"),
        default="prom",
        help="exposition format (Prometheus text or the JSON snapshot)",
    )
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("trace", help="generate a synthetic MBone-style trace")
    p.add_argument("output")
    p.add_argument("--length", type=float, default=3600.0, help="session seconds")
    p.add_argument("--arrival-rate", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=0.8)
    p.add_argument("--short-mean", type=float, default=180.0)
    p.add_argument("--long-mean", type=float, default=10_800.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("tracestats", help="summarize a trace file")
    p.add_argument("trace")
    p.set_defaults(func=_cmd_tracestats)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # ``trace`` already takes a positional output path (the synthetic
    # membership-trace generator), so the observability summarizer is
    # dispatched here rather than fighting argparse over the word.
    if argv[:2] == ["trace", "summarize"]:
        return _cmd_trace_summarize(argv[2:])
    if argv[:2] == ["trace", "export"]:
        return _cmd_trace_export(argv[2:])
    if argv[:2] == ["obs", "serve"]:
        return _cmd_obs_serve(argv[2:])
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - module execution path
    sys.exit(main())
