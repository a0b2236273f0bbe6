"""One receiver pass per epoch, after delivery, on the rows the server names.

The server names each payload row's audience off its trees
(``PartitionedServer.audiences``), the transport delivers to those
audiences, and then every in-sync member the transport did not abandon
absorbs the payload once.  These tests hold the naming to an order-free
oracle, taken from each receiver's keys before the pass, for every scheme
of the conformance battery over all three transports, under crash-restore
and abandonment:

* sufficiency: absorbing only the rows that name a receiver leaves it
  holding what the full payload gives it;
* minimality: the rows that name it are as many as the keys it learns.

A receiver the transport abandons ends the epoch holding exactly the key
objects it held before, OUT_OF_SYNC, with the counters reading as if it
never absorbed, and recovers over unicast as before; and the events a
seeded faulty run writes do not depend on the hash seed.

Only the tracked receivers hold keys (``TRACKED_RECEIVERS``).  In a group
above the sample the oracle holds every tracked receiver to its rows and
every other named receiver to the in-sync roster, and an untracked
receiver the transport abandons holds its individual key alone until its
catch-up.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.crypto.wrap import WrapIndex
from repro.faults.recovery import SyncState
from repro.faults.retry import RetryPolicy
from repro.faults.schedule import Blackout, ChurnStorm, FaultSchedule, ServerCrash
from repro.members.member import Member
from repro.members.population import LossPopulation
from repro.obs import metrics as obs_metrics
from repro.sim.simulation import (
    TRACKED_RECEIVERS,
    GroupRekeyingSimulation,
    SimulationConfig,
)
from repro.testing import scheme_specs
from repro.transport.fec import ProactiveFecProtocol
from repro.transport.multisend import MultiSendProtocol
from repro.transport.wka_bkr import WkaBkrProtocol

from tests.helpers import interest_of

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

#: The receiver pass itself, unwrapped by any spy: what the oracle runs.
ABSORB = Member.absorb


def _schedule(name, joins=40):
    storm = ChurnStorm(at_time=0.0, joins=joins)
    if name == "crash-restore":
        faults = [storm, ServerCrash(at_time=110.0), ServerCrash(at_time=230.0)]
    else:  # a blackout over two rekey points: receivers are abandoned
        faults = [
            storm,
            Blackout(start=110.0, duration=20.0, fraction=0.3),
            Blackout(start=170.0, duration=20.0, fraction=0.3),
        ]
    return FaultSchedule.of(faults, name=name)


def _simulation(server, transport, schedule, joins=40):
    config = SimulationConfig(
        arrival_rate=0.1,
        rekey_period=60.0,
        horizon=HORIZON,
        loss_population=LossPopulation.two_point(),
        transport=transport,
        verify=True,
        seed=11,
        fault_schedule=_schedule(schedule, joins),
        recovery_delay=30.0,
    )
    return GroupRekeyingSimulation(server, config)


def learn(member_id, held, payload, index=None):
    """What a receiver holding ``held`` learns from ``payload``: the keys
    in learning order and its key map after, counted apart from the run."""
    member = Member(member_id, held[f"member:{member_id}"])
    member._keys = dict(held)
    with obs_metrics.collecting():
        learned = ABSORB(member, payload, index=index)
    return learned, {k: (key.version, key.secret) for k, key in member._keys.items()}


def check_named(batch, audiences, held_by_receiver, roster=None):
    """The order-free audience oracle: every receiver of ``held_by_receiver``
    named in exactly the rows it needs, and no row naming one outside
    ``roster`` (default: those receivers).  Returns how many named rows
    wrap under a key their receiver learns in the same pass."""
    named = interest_of(audiences)
    roster = held_by_receiver if roster is None else roster
    assert set(named) <= set(roster), "a row names an absent receiver"
    full_index = WrapIndex(batch)
    chained = 0
    for rid, held in held_by_receiver.items():
        rows = sorted(named.get(rid, ()))
        learned, after = learn(rid, held, batch, full_index)
        # minimality: one row per key learned
        assert len(rows) == len(learned), (rid, rows, [k.handle for k in learned])
        # sufficiency: those rows alone teach it everything
        __, mine = learn(rid, held, [batch[row] for row in rows])
        assert mine == after, rid
        for row in rows:
            wrapping = held.get(batch.wrapping_ids[row])
            if wrapping is None or wrapping.version != batch.wrapping_versions[row]:
                chained += 1
    return chained


class PassSpy:
    """Wraps ``Member.absorb``, the transport's ``run`` and the unicast
    catch-up of one run.

    When the transport runs, before any receiver of the epoch absorbs, it
    records every in-sync tracked member's key map and holds the task's
    audiences to the oracle; after the epoch it checks every abandoned
    receiver against its recorded key map (an untracked one against its
    individual key).
    """

    def __init__(self, monkeypatch, sim):
        self.sim = sim
        self.in_sync = []  # receiver ids in sync before this epoch's pass
        self.before = {}  # tracked id -> key map before this epoch's pass
        self.checked = []  # receivers held to their rows, per epoch
        self.untracked_abandoned = 0
        self.tasks = []  # (payload, audiences, key maps) per delivery
        self.epochs = 0
        self.chained = 0  # named rows wrapped under a key learned in-pass
        self.abandoned = 0
        self.before_abandoning = {}  # member id -> key map, last abandonment
        self.committed_learned = 0  # keys learned by the epochs' passes
        self.catch_ups = []  # (member id, keys learned) per unicast absorb
        self.references = []  # the same, from the keys held before the epoch

        def spy_absorb(member, encrypted_keys, index=None):
            learned = ABSORB(member, encrypted_keys, index=index)
            if index is None:
                self.catch_ups.append((member.member_id, learned))
            else:
                self.committed_learned += len(learned)
            return learned

        monkeypatch.setattr(Member, "absorb", spy_absorb)
        transport = sim.config.transport
        run = transport.run

        def spy_run(task, channel):
            self.check_audiences(task)
            return run(task, channel)

        monkeypatch.setattr(transport, "run", spy_run)
        deliver = sim._deliver_batch

        def spy_deliver(result, now):
            self.in_sync, self.before = [], {}
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
            before = self.before_abandoning[member_id]
            reference = Member(member_id, before[f"member:{member_id}"])
            reference._keys = dict(before)
            with obs_metrics.collecting():  # the reference counts apart from the run
                self.references.append((member_id, ABSORB(reference, payload)))
            return payload, event

        monkeypatch.setattr(sim.server, "catch_up", spy_catch_up)

    def check_audiences(self, task):
        self.epochs += 1
        desynced = self.sim.sync_tracker.desynced
        members = self.sim.members
        self.in_sync = [rid for rid in members if rid not in desynced]
        self.before = {
            rid: dict(members[rid]._keys)
            for rid in self.in_sync
            if members[rid] is not None
        }
        self.tasks.append((task.keys, task.audiences, self.before))
        self.chained += check_named(
            task.keys, task.audiences, self.before, roster=self.in_sync
        )
        self.checked.append(len(self.before))

    def check_epoch(self, record):
        desynced = self.sim.sync_tracker.desynced
        out = [rid for rid in self.in_sync if rid in desynced]
        assert len(out) == record.abandoned
        for rid in out:
            member = self.sim.members[rid]
            before = self.before.get(rid)
            if before is None:  # untracked: built from its registration
                before = {f"member:{rid}": member.key(f"member:{rid}")}
                self.untracked_abandoned += 1
            assert member._keys.keys() == before.keys()
            assert all(member._keys[k] is before[k] for k in before)
            assert self.sim.sync_tracker.state_of(rid) is SyncState.OUT_OF_SYNC
            self.before_abandoning[rid] = before
        self.abandoned += len(out)


@pytest.mark.parametrize("schedule", ["crash-restore", "abandoning"])
@pytest.mark.parametrize("transport", sorted(TRANSPORTS))
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_interest_is_the_closure_before_the_pass(
    monkeypatch, spec, transport, schedule
):
    """The rows the server names are, receiver by receiver, exactly what
    the closure over its keys before the pass learns: none missing (each
    receiver's rows alone teach it everything) and none spare (one row per
    key it learns)."""
    sim = _simulation(spec.factory(), TRANSPORTS[transport](), schedule)
    spy = PassSpy(monkeypatch, sim)
    metrics = sim.run()
    assert spy.epochs == len(metrics.records) > 0
    assert metrics.verification_checks == len(metrics.records)
    if schedule == "crash-restore":
        assert metrics.server_crashes == 2
    else:
        assert metrics.abandoned_total == spy.abandoned > 0


def test_interest_above_the_sample(monkeypatch):
    """In a group above the tracked sample the oracle holds every tracked
    receiver to its rows each epoch, names no receiver outside the in-sync
    roster, and an untracked receiver the transport abandons recovers
    over unicast what the receiver it was would have."""
    sim = _simulation(
        SPECS[0].factory(), TRANSPORTS["wka-bkr"](), "abandoning", joins=600
    )
    spy = PassSpy(monkeypatch, sim)
    spy.spy_catch_ups(monkeypatch)
    metrics = sim.run()
    abandoning = [r for r in metrics.records if r.abandoned]
    assert abandoning and all(r.group_size > TRACKED_RECEIVERS for r in abandoning)
    assert spy.epochs == len(metrics.records)
    assert min(spy.checked) > 0 and max(spy.checked) <= TRACKED_RECEIVERS + spy.abandoned
    assert metrics.abandoned_total == spy.abandoned
    assert spy.untracked_abandoned > 0
    for (rid, learned), (ref_rid, reference) in zip(spy.catch_ups, spy.references):
        assert rid == ref_rid
        assert [key.handle for key in learned] == [key.handle for key in reference]


def test_the_oracle_is_not_vacuous(monkeypatch):
    """Some epoch names a receiver in a row it can open only with a key it
    learns in the same pass, and some epoch abandons; and the oracle
    refuses a derivation that adds one receiver to one row, drops one, or
    names one in a row it cannot open instead of one it can."""
    sim = _simulation(SPECS[0].factory(), TRANSPORTS["wka-bkr"](), "abandoning")
    spy = PassSpy(monkeypatch, sim)
    sim.run()
    assert spy.chained > 0
    assert spy.abandoned > 0
    batch, audiences, held = max(spy.tasks, key=lambda task: len(task[1]))
    # A row some receiver is not named in, and another its victim is not.
    first = min(row for row, named in audiences.items() if named != set(held))
    stranger = min(set(held) - audiences[first])
    victim = min(audiences[first])
    other = min(row for row, named in audiences.items() if victim not in named)
    added = dict(audiences)
    added[first] = audiences[first] | {stranger}
    dropped = dict(audiences)
    dropped[first] = audiences[first] - {victim}
    moved = dict(dropped)
    moved[other] = audiences[other] | {victim}
    for wrong in (added, dropped, moved):
        with pytest.raises(AssertionError):
            check_named(batch, wrong, held)
    check_named(batch, audiences, held)


@pytest.mark.parametrize(
    "make",
    [TRANSPORTS["wka-bkr"], TRANSPORTS["proactive-fec"]]
    + [EXHAUSTING[name] for name in sorted(EXHAUSTING)],
    ids=["retry-wka-bkr", "retry-proactive-fec"]
    + [f"exhausted-{name}" for name in sorted(EXHAUSTING)],
)
def test_abandoned_receivers_are_reverted(monkeypatch, make):
    """An abandoned receiver never absorbs the epoch's payload: it ends the
    epoch as if reverted, holding its pre-epoch key objects, OUT_OF_SYNC,
    with the counters reading as if it never absorbed."""
    sim = _simulation(SPECS[0].factory(), make(), "abandoning")
    spy = PassSpy(monkeypatch, sim)
    spy.spy_catch_ups(monkeypatch)
    with obs_metrics.collecting() as registry:
        metrics = sim.run()
    assert metrics.abandoned_total == spy.abandoned > 0
    # Each unicast catch-up teaches the member what it would have taught
    # the member it was before the abandoning epoch.
    assert len(spy.catch_ups) == len(spy.references) == len(sim.sync_tracker.events) > 0
    for (rid, learned), (ref_rid, reference) in zip(spy.catch_ups, spy.references):
        assert rid == ref_rid
        assert [key.handle for key in learned] == [key.handle for key in reference]
    # The counters hold the committed passes and the catch-ups only.
    learned = registry.counter_total("member.keys_learned")
    assert learned == spy.committed_learned + sum(
        len(keys) for __, keys in spy.catch_ups
    )
    assert learned == registry.counter_total("crypto.unwraps") + registry.counter_total(
        "member.unwraps_shared"
    )


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
