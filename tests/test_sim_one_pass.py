"""One receiver pass per epoch.

The simulator has every in-sync member absorb a payload once, before the
transport, and hands the rows each one learned to the transport as its
interest.  These tests hold that pass to the references it replaced:

* the interest equals ``WrapIndex.closure(member.held_versions())`` taken
  before the pass, for every scheme of the conformance battery, over all
  three transports, under crash-restore and abandonment;
* a receiver the transport abandons ends the epoch holding exactly the
  key objects it held before, OUT_OF_SYNC, with the counters reading as
  if its absorb never ran, and recovers over unicast as before;
* the events a seeded faulty run writes do not depend on the hash seed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.crypto.material import KeyGenerator
from repro.crypto.wrap import WrapIndex, wrap_key
from repro.faults.recovery import SyncState
from repro.faults.retry import RetryPolicy
from repro.faults.schedule import Blackout, ChurnStorm, FaultSchedule, ServerCrash
from repro.members.member import AbsorbJournal, Member
from repro.members.population import LossPopulation
from repro.obs import metrics as obs_metrics
from repro.sim.simulation import GroupRekeyingSimulation, SimulationConfig
from repro.testing import scheme_specs
from repro.transport.fec import ProactiveFecProtocol
from repro.transport.multisend import MultiSendProtocol
from repro.transport.wka_bkr import WkaBkrProtocol

SPECS = scheme_specs()
REPO = Path(__file__).resolve().parent.parent

TRANSPORTS = {
    "wka-bkr": lambda: WkaBkrProtocol(
        keys_per_packet=8, retry=RetryPolicy(max_rounds=8, abandon_after=3)
    ),
    "proactive-fec": lambda: ProactiveFecProtocol(
        keys_per_packet=4, block_size=4, retry=RetryPolicy(max_rounds=8, abandon_after=3)
    ),
    "multi-send": lambda: MultiSendProtocol(keys_per_packet=8, max_rounds=4),
}

#: Round-cap exhaustion (``TransportExhausted``) on every transport.
EXHAUSTING = {
    "wka-bkr": lambda: WkaBkrProtocol(keys_per_packet=8, max_rounds=4),
    "proactive-fec": lambda: ProactiveFecProtocol(
        keys_per_packet=4, block_size=4, max_rounds=4
    ),
    "multi-send": lambda: MultiSendProtocol(keys_per_packet=8, max_rounds=4),
}

HORIZON = 300.0


def _schedule(name):
    storm = ChurnStorm(at_time=0.0, joins=40)
    if name == "crash-restore":
        faults = [storm, ServerCrash(at_time=110.0), ServerCrash(at_time=230.0)]
    else:  # a blackout over two rekey points: receivers are abandoned
        faults = [
            storm,
            Blackout(start=110.0, duration=20.0, fraction=0.3),
            Blackout(start=170.0, duration=20.0, fraction=0.3),
        ]
    return FaultSchedule.of(faults, name=name)


def _simulation(server, transport, schedule):
    config = SimulationConfig(
        arrival_rate=0.1,
        rekey_period=60.0,
        horizon=HORIZON,
        loss_population=LossPopulation.two_point(),
        transport=transport,
        verify=True,
        seed=11,
        fault_schedule=_schedule(schedule),
        recovery_delay=30.0,
    )
    return GroupRekeyingSimulation(server, config)


class PassSpy:
    """Wraps ``Member.absorb``, the transport's ``run`` and the unicast
    catch-up of one run.

    Before a journaled absorb (the simulator's one pass) it records the
    member's key map and the closure reference; when the transport runs it
    checks the task's interest against those references; after the epoch
    it checks every abandoned receiver against its recorded key map.
    """

    def __init__(self, monkeypatch, sim):
        self.sim = sim
        self.before = {}  # member id -> key map before this epoch's pass
        self.expected = {}  # member id -> (closure rows, held, index)
        self.journals = {}  # member id -> this epoch's journal
        self.epochs = 0
        self.chained = 0  # interest rows wrapped under a key learned in-pass
        self.reverted = 0
        self.committed_learned = 0  # keys learned by absorbs that stayed
        self.catch_ups = []  # (member id, keys learned) per unicast absorb
        self.references = []  # the same, from the keys held before the epoch
        self.absorb = absorb = Member.absorb

        def spy_absorb(member, encrypted_keys, index=None, journal=None):
            if journal is None:
                learned = absorb(member, encrypted_keys, index=index)
                self.catch_ups.append((member.member_id, learned))
                return learned
            held = member.held_versions()
            self.before[member.member_id] = dict(member._keys)
            self.expected[member.member_id] = (set(index.closure(held)), held, index)
            self.journals[member.member_id] = journal
            return absorb(member, encrypted_keys, index=index, journal=journal)

        monkeypatch.setattr(Member, "absorb", spy_absorb)
        transport = sim.config.transport
        run = transport.run

        def spy_run(task, channel):
            self.check_interest(task)
            return run(task, channel)

        monkeypatch.setattr(transport, "run", spy_run)
        deliver = sim._deliver_batch

        def spy_deliver(result, now):
            self.expected.clear()
            self.journals.clear()
            deliver(result, now)
            self.check_epoch(sim.metrics.records[-1])

        monkeypatch.setattr(sim, "_deliver_batch", spy_deliver)

    def spy_catch_ups(self, monkeypatch):
        """Also absorb every unicast catch-up payload into a fresh member
        holding the keys its receiver held before the abandoning epoch."""
        sim = self.sim
        catch_up = sim.server.catch_up

        def spy_catch_up(member_id, now):
            payload, event = catch_up(member_id, now=now)
            before = self.before[member_id]
            reference = Member(member_id, before[f"member:{member_id}"])
            reference._keys = dict(before)
            with obs_metrics.collecting():  # the reference counts apart from the run
                self.references.append((member_id, self.absorb(reference, payload)))
            return payload, event

        monkeypatch.setattr(sim.server, "catch_up", spy_catch_up)

    def check_interest(self, task):
        self.epochs += 1
        want = {rid: rows for rid, (rows, __, ___) in self.expected.items() if rows}
        assert {rid: set(rows) for rid, rows in task.interest.items()} == want
        for rows, held, index in self.expected.values():
            batch = index.batch
            for row in rows:
                if held.get(batch.wrapping_ids[row]) != batch.wrapping_versions[row]:
                    self.chained += 1

    def check_epoch(self, record):
        out = [rid for rid in self.journals if rid in self.sim.sync_tracker.desynced]
        assert len(out) == record.abandoned
        for rid in out:
            member = self.sim.members[rid]
            before = self.before[rid]
            assert member._keys.keys() == before.keys()
            assert all(member._keys[k] is before[k] for k in before)
            assert self.sim.sync_tracker.state_of(rid) is SyncState.OUT_OF_SYNC
        self.reverted += len(out)
        self.committed_learned += sum(
            len(journal)
            for rid, journal in self.journals.items()
            if rid not in self.sim.sync_tracker.desynced
        )


@pytest.mark.parametrize("schedule", ["crash-restore", "abandoning"])
@pytest.mark.parametrize("transport", sorted(TRANSPORTS))
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_interest_is_the_closure_before_the_pass(
    monkeypatch, spec, transport, schedule
):
    sim = _simulation(spec.factory(), TRANSPORTS[transport](), schedule)
    spy = PassSpy(monkeypatch, sim)
    metrics = sim.run()
    assert spy.epochs == len(metrics.records) > 0
    assert metrics.verification_checks == len(metrics.records)
    if schedule == "crash-restore":
        assert metrics.server_crashes == 2
    else:
        assert metrics.abandoned_total == spy.reverted > 0


def test_the_oracle_is_not_vacuous(monkeypatch):
    """Some epoch hands the transport a row the member could open only with
    a key it learned in the same pass, and some epoch abandons."""
    sim = _simulation(SPECS[0].factory(), TRANSPORTS["wka-bkr"](), "abandoning")
    spy = PassSpy(monkeypatch, sim)
    sim.run()
    assert spy.chained > 0
    assert spy.reverted > 0


@pytest.mark.parametrize(
    "make",
    [TRANSPORTS["wka-bkr"], TRANSPORTS["proactive-fec"]]
    + [EXHAUSTING[name] for name in sorted(EXHAUSTING)],
    ids=["retry-wka-bkr", "retry-proactive-fec"]
    + [f"exhausted-{name}" for name in sorted(EXHAUSTING)],
)
def test_abandoned_receivers_are_reverted(monkeypatch, make):
    sim = _simulation(SPECS[0].factory(), make(), "abandoning")
    spy = PassSpy(monkeypatch, sim)
    spy.spy_catch_ups(monkeypatch)
    with obs_metrics.collecting() as registry:
        metrics = sim.run()
    assert metrics.abandoned_total == spy.reverted > 0
    # Each unicast catch-up teaches the member what it would have taught
    # the member it was before the abandoning epoch.
    assert len(spy.catch_ups) == len(spy.references) == len(sim.sync_tracker.events) > 0
    for (rid, learned), (ref_rid, reference) in zip(spy.catch_ups, spy.references):
        assert rid == ref_rid
        assert [key.handle for key in learned] == [key.handle for key in reference]
    # The counters read as if the reverted absorbs never ran.
    learned = registry.counter_total("member.keys_learned")
    assert learned == spy.committed_learned + sum(
        len(keys) for __, keys in spy.catch_ups
    )
    assert learned == registry.counter_total("crypto.unwraps") + registry.counter_total(
        "member.unwraps_shared"
    )


def test_revert_restores_the_key_objects_and_counts():
    gen = KeyGenerator(5)
    leaf, old_parent = gen.generate("leaf"), gen.generate("parent")
    member = Member("m", leaf)
    member.install(old_parent)
    held, versions = dict(member._keys), member.held_versions()
    parent = gen.generate("parent", version=1)
    root = gen.generate("root", version=1)
    payload = [wrap_key(leaf, parent), wrap_key(parent, root)]
    index = WrapIndex(payload)
    journal = AbsorbJournal()
    with obs_metrics.collecting() as registry:
        learned = member.absorb(payload, index=index, journal=journal)
        assert [key.handle for key in learned] == [parent.handle, root.handle]
        assert set(journal) == {0, 1} == set(index.closure(versions))
        assert list(journal.values()) == [old_parent, "root"]
        member.revert(journal)
        for name in ("member.keys_learned", "crypto.unwraps", "member.wraps_examined"):
            assert registry.counter_total(name) == 0
    assert member._keys.keys() == held.keys()
    assert all(member._keys[k] is held[k] for k in held)


def test_event_records_do_not_depend_on_the_hash_seed(tmp_path):
    """A seeded faulty run writes the same events in the same order under
    two hash seeds (wall-clock fields aside)."""
    records = []
    for hash_seed in ("1", "2"):
        trace = tmp_path / f"trace-{hash_seed}.jsonl"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(REPO / "src"))
        subprocess.run(
            [
                sys.executable, "-m", "repro", "chaos", "--quick", "--seed", "7",
                "--trace", str(trace), "--out", str(tmp_path / f"chaos-{hash_seed}.json"),
            ],
            check=True,
            env=env,
            cwd=tmp_path,
            stdout=subprocess.DEVNULL,
        )
        events = []
        for line in trace.read_text().splitlines():
            record = json.loads(line)
            if record.get("record") == "event":
                events.append(
                    {k: v for k, v in record.items() if not k.startswith("wall")}
                )
        records.append(events)
    first, second = records
    for kind in ("dek_adopted", "abandonment", "resync"):
        assert any(event["type"] == kind for event in first)
    assert first == second
