"""Chaos harness smoke tests: faults end-to-end with zero violations."""

import json
from pathlib import Path

import pytest

import repro.obs as obs
from repro.faults.chaos import ChaosSimulation, run_chaos, run_chaos_case
from repro.faults.retry import RetryPolicy
from repro.faults.schedule import FaultSchedule
from repro.members.durations import TwoClassDuration
from repro.members.population import LossPopulation
from repro.server.onetree import OneTreeServer
from repro.sim.simulation import TRACKED_RECEIVERS, SimulationConfig
from repro.transport.wka_bkr import WkaBkrProtocol


def test_blackout_resync_abandons_then_recovers():
    report = run_chaos_case("one", "blackout-resync", seed=7, horizon=1200.0)
    assert report["violations"] == []
    assert report["abandoned"] > 0
    recoveries = report["recoveries"]
    assert recoveries["count"] > 0
    assert recoveries["latency_min_s"] > 0.0
    assert recoveries["keys_total"] > 0
    assert report["counters"]["server.catchups"] == recoveries["count"]


def test_crash_restore_is_transparent():
    report = run_chaos_case("one", "crash-restore", seed=7, horizon=1200.0)
    assert report["violations"] == []
    assert report["server_crashes"] > 0
    assert report["rekeyings"] > 0


def test_two_partition_under_randomized_faults():
    report = run_chaos_case("tt", "randomized", seed=11, horizon=1200.0)
    assert report["violations"] == []


def test_run_chaos_writes_report(tmp_path):
    out = tmp_path / "BENCH_chaos.json"
    report = run_chaos(
        seed=7,
        horizon=900.0,
        schemes=("one",),
        schedules=("blackout-resync",),
        out_path=str(out),
    )
    assert report["violations_total"] == 0
    assert report["recoveries_total"] > 0
    on_disk = json.loads(out.read_text())
    assert on_disk["runs"][0]["scheme"] == "one"
    assert on_disk["violations_total"] == 0


def test_chaos_counts_into_an_outer_registry():
    """A run under ``observe()`` reports the same counters as a plain one
    and leaves every increment in the outer registry (the one ``repro
    chaos --serve/--metrics`` scrapes): the run never shadows it."""
    cell = dict(seed=7, schemes=("one",), schedules=("crash-restore",), out_path=None)
    plain = run_chaos(**cell)["runs"][0]
    with obs.observe() as bundle:
        observed = run_chaos(**cell)["runs"][0]
    assert observed["counters"] == plain["counters"]
    rekeys = bundle.registry.counter_total("server.rekeys")
    # A crash computes its batch unobserved, loses it, and the restored
    # server reruns it: each epoch is counted once.
    assert observed["server_crashes"] == 2
    assert rekeys == observed["rekeyings"] == 30
    assert rekeys == observed["counters"]["server.rekeys"]


def test_a_crashed_epoch_is_booked_once(tmp_path, capsys):
    """The batch a crash loses leaves no record: one ``epoch`` event, one
    ``rekey`` span and one ``server.rekeys`` increment per epoch, and
    ``repro.obs.check`` refuses the trace once an epoch event is doubled."""
    from repro.obs.check import main as check_main

    cell = dict(seed=7, schemes=("one",), schedules=("crash-restore",), out_path=None)
    with obs.observe() as bundle:
        report = run_chaos(**cell)["runs"][0]
    assert report["server_crashes"] == 2
    epochs = [record["epoch"] for record in bundle.events.of_type("epoch")]
    assert epochs == list(range(1, report["rekeyings"] + 1))
    rekey_spans = [r for r in bundle.tracer.to_records() if r["name"] == "rekey"]
    assert len(rekey_spans) == report["rekeyings"]
    trace, prom = tmp_path / "trace.jsonl", tmp_path / "metrics.prom"
    obs.write_trace(bundle, trace)
    obs.write_metrics(bundle.registry, prom)
    assert check_main([str(trace), str(prom)]) == 0
    # The parent's double booking: the doomed batch's epoch event ahead
    # of the replay's.
    crashed = bundle.events.of_type("crash")[0]["epoch"]
    records = obs.read_trace(trace)
    at = next(
        i for i, r in enumerate(records)
        if r.get("type") == "epoch" and r["epoch"] == crashed
    )
    records.insert(at, dict(records[at]))
    trace.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    assert check_main([str(trace), str(prom)]) == 1
    assert f"epoch {crashed} at t=" in capsys.readouterr().err.split("booked twice")[0]


def test_full_sweep_reproduces_committed_report(tmp_path):
    """The sweep is deterministic (any ``PYTHONHASHSEED``), so the
    committed ``BENCH_chaos.json`` is a pin: the same draws under fault,
    run for run.  Re-record it with ``python -m repro chaos --seed 7``
    only when a change is *meant* to move them."""
    committed = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCH_chaos.json").read_text()
    )
    out = tmp_path / "BENCH_chaos.json"
    run_chaos(seed=committed["seed"], horizon=committed["horizon_s"], out_path=str(out))
    fresh = json.loads(out.read_text())
    assert len(fresh["runs"]) == len(committed["runs"]) == 25
    for run, pinned in zip(fresh["runs"], committed["runs"]):
        assert run == pinned, (pinned["scheme"], pinned["schedule"])
    for report in (fresh, committed):
        for host_field in ("platform", "python"):
            del report[host_field]
    assert fresh == committed


def test_the_sweep_checks_every_receiver():
    """The chaos checks run on the tracked receivers, and no run of the
    pinned sweep admits as many joiners as the tracked sample holds: each
    of its receivers holds a ``Member`` from its join on, so every one is
    checked (the sweep reproduces the pin, above)."""
    committed = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCH_chaos.json").read_text()
    )
    assert max(run["joins"] for run in committed["runs"]) < TRACKED_RECEIVERS
    config = SimulationConfig(
        arrival_rate=0.05,
        rekey_period=60.0,
        horizon=900.0,
        duration_model=TwoClassDuration(),
        loss_population=LossPopulation.two_point(),
        transport=WkaBkrProtocol(
            keys_per_packet=16, retry=RetryPolicy(max_rounds=8, abandon_after=4)
        ),
        verify=True,
        seed=7,
        fault_schedule=FaultSchedule.named("blackout-resync", 900.0),
    )
    sim = ChaosSimulation(OneTreeServer(), config)
    sim.run()
    assert sim.metrics.abandoned_total > 0
    assert sim.members and sim.tracked == sim.members


def test_chaos_simulation_detects_planted_violation():
    """The harness must actually catch a broken invariant, not just pass."""
    config = SimulationConfig(
        arrival_rate=0.05,
        rekey_period=60.0,
        horizon=600.0,
        duration_model=TwoClassDuration(),
        loss_population=LossPopulation.two_point(),
        transport=WkaBkrProtocol(
            keys_per_packet=16,
            retry=RetryPolicy(max_rounds=8, abandon_after=4),
        ),
        verify=True,
        seed=7,
        fault_schedule=FaultSchedule(),
    )
    sim = ChaosSimulation(OneTreeServer(), config)
    metrics = sim.run()
    assert sim.violations == []
    # Now plant a forward-secrecy hole: give a departed member the DEK.
    if not sim.departed:
        pytest.skip("workload produced no departures to corrupt")
    from repro.server.base import BatchResult

    adversary = sim.departed[0]
    adversary.install(sim.server.group_key())
    sim._verify(BatchResult(epoch=999, time=601.0))
    assert any("evicted" in v for v in sim.violations)
    assert metrics.rekey_count > 0
