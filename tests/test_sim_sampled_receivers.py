"""Only a tracked sample of receivers absorbs: the records do not move.

The simulator keeps a ``Member`` for at most ``TRACKED_RECEIVERS`` live
receivers plus the ones the transport abandons; the others are ids that
the transport delivers to and the latency tracker books.
``repro.testing.oracle.EveryReceiverSimulation`` tracks every receiver,
as the simulator did before sampling.  At a group well above the sample,
over WKA-BKR and proactive FEC, with and without an abandoning fault
schedule, the two must give the same rekey records, transport outcomes
and latency records, and every receiver the sampled run counts as
delivered must hold the group key in the oracle.
"""

import pytest

from repro.faults.retry import RetryPolicy
from repro.faults.schedule import Blackout, ChurnStorm, FaultSchedule
from repro.members.durations import TwoClassDuration
from repro.members.member import Member
from repro.members.population import LossPopulation
from repro.server.losshomog import LossHomogenizedServer
from repro.server.onetree import OneTreeServer
from repro.sim.simulation import (
    TRACKED_RECEIVERS,
    GroupRekeyingSimulation,
    SimulationConfig,
)
from repro.testing.oracle import EveryReceiverSimulation
from repro.transport.fec import ProactiveFecProtocol
from repro.transport.wka_bkr import WkaBkrProtocol

GROUP = 700

#: (server, transport taking its retry policy) per case; the benchmark's
#: pairings, as ``bench/workloads.py`` builds them.
CASES = {
    "wka-bkr": (
        lambda: OneTreeServer(degree=4),
        lambda **retry: WkaBkrProtocol(keys_per_packet=16, **retry),
    ),
    "proactive-fec": (
        lambda: LossHomogenizedServer(degree=4, placement="loss"),
        lambda **retry: ProactiveFecProtocol(keys_per_packet=16, block_size=8, **retry),
    ),
}


def _config(make_transport, abandoning):
    faults = [ChurnStorm(at_time=0.0, joins=GROUP)]
    transport = make_transport()
    if abandoning:  # a retry policy, blackouts over two rekey points
        transport = make_transport(retry=RetryPolicy(max_rounds=8, abandon_after=3))
        faults += [
            Blackout(start=110.0, duration=20.0, fraction=0.3),
            Blackout(start=230.0, duration=20.0, fraction=0.3),
        ]
    return SimulationConfig(
        arrival_rate=0.5,
        rekey_period=60.0,
        horizon=330.0,
        duration_model=TwoClassDuration(600.0, 20_000.0, 0.5),
        loss_population=LossPopulation.two_point(0.20, 0.02, 0.3),
        transport=transport,
        verify=True,
        seed=5,
        fault_schedule=FaultSchedule.of(faults, name="sampled"),
        recovery_delay=30.0,
    )


class Recorder:
    """Every transport outcome of a run, and whom each epoch delivered."""

    def __init__(self, monkeypatch, sim):
        self.outcomes = []
        self.delivered = []  # (epoch, receiver ids) per delivery
        transport = sim.config.transport
        run = transport.run

        def recording_run(task, channel):
            outcome = run(task, channel)
            self.outcomes.append(_outcome(outcome))
            return outcome

        monkeypatch.setattr(transport, "run", recording_run)
        observe = sim.latency.observe_deliveries

        def recording_observe(ids, epoch, completed, late):
            self.delivered.append((epoch, list(ids)))
            observe(ids, epoch, completed, late)

        monkeypatch.setattr(sim.latency, "observe_deliveries", recording_observe)


def _outcome(result):
    return (
        result.rounds,
        result.packets_sent,
        result.keys_sent,
        result.parity_packets,
        result.satisfied,
        result.per_round_packets,
        sorted(result.abandoned),
        sorted(result.late),
        result.elapsed,
        result.completed,
    )


def _latency_records(tracker):
    return {
        epoch: (slot.zero, slot.late_zero, slot.samples, slot.abandoned)
        for epoch, slot in tracker._epochs.items()
    }


@pytest.mark.parametrize("abandoning", [False, True], ids=["steady", "abandoning"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_the_sample_gives_the_records_of_every_receiver(monkeypatch, case, abandoning):
    make_server, make_transport = CASES[case]
    sampled = GroupRekeyingSimulation(make_server(), _config(make_transport, abandoning))
    oracle = EveryReceiverSimulation(make_server(), _config(make_transport, abandoning))
    recorded = Recorder(monkeypatch, sampled), Recorder(monkeypatch, oracle)

    # In the oracle, every receiver the sampled run delivers to holds the
    # group key at the end of that epoch.
    deliver = oracle._deliver_batch
    dek_holders = []

    def checked_deliver(result, now):
        deliver(result, now)
        dek = oracle.server.group_key()
        __, ids = recorded[1].delivered[-1]
        assert all(oracle.members[rid].holds(dek.key_id, dek.version) for rid in ids)
        dek_holders.append(len(ids))

    monkeypatch.setattr(oracle, "_deliver_batch", checked_deliver)
    metrics = sampled.run()
    oracle.run()

    assert metrics.records == oracle.metrics.records
    assert metrics.verification_checks == len(metrics.records) == 5
    assert recorded[0].outcomes == recorded[1].outcomes
    assert recorded[0].delivered == recorded[1].delivered
    assert dek_holders == [len(ids) for __, ids in recorded[0].delivered]
    assert _latency_records(sampled.latency) == _latency_records(oracle.latency)
    assert sampled.latency.summary() == oracle.latency.summary()
    assert sampled.sync_tracker.events == oracle.sync_tracker.events

    # The sample is a sample: the oracle tracks everyone, the run does not.
    assert min(r.group_size for r in metrics.records) > TRACKED_RECEIVERS
    assert set(oracle.tracked) == set(oracle.members)
    untracked = [rid for rid, member in sampled.members.items() if member is None]
    assert len(sampled.tracked) == len(sampled.members) - len(untracked)
    assert len(untracked) > GROUP - 2 * TRACKED_RECEIVERS
    if abandoning:
        assert metrics.abandoned_total > 0
    else:
        assert metrics.abandoned_total == 0
        assert len(sampled.tracked) == TRACKED_RECEIVERS


def test_an_abandoned_untracked_receiver_is_built_and_caught_up(monkeypatch):
    """A receiver outside the sample that the transport abandons gets a
    ``Member`` from its registration; its unicast catch-up restores it to
    the group key, and ``verify`` holds it to the key from then on."""
    make_server, make_transport = CASES["wka-bkr"]
    sim = GroupRekeyingSimulation(make_server(), _config(make_transport, True))
    outside = set()  # abandoned while untracked
    admit = sim._admit_new_member

    def remember_untracked():
        member_id = admit()
        if sim.members[member_id] is None:
            outside.add(member_id)
        return member_id

    monkeypatch.setattr(sim, "_admit_new_member", remember_untracked)
    built = {}
    deliver = sim._deliver_batch

    def watched_deliver(result, now):
        untracked_before = {rid for rid in outside if sim.members.get(rid) is None}
        deliver(result, now)
        for rid in untracked_before:
            member = sim.members.get(rid)
            if member is not None:
                # Built at abandonment from the individual key alone.
                assert sim.sync_tracker.desynced.get(rid) is not None
                assert sim.tracked[rid] is member
                assert set(member.held_versions()) == {f"member:{rid}"}
                built[rid] = member

    monkeypatch.setattr(sim, "_deliver_batch", watched_deliver)
    restored = []
    catch_up = sim._catch_up

    def checked_catch_up(member_id):
        catch_up(member_id)
        if member_id in built and member_id in sim.members:
            dek = sim.server.group_key()
            assert sim.members[member_id].holds(dek.key_id, dek.version)
            restored.append(member_id)

    monkeypatch.setattr(sim, "_catch_up", checked_catch_up)
    metrics = sim.run()
    assert built and restored
    assert metrics.verification_checks == len(metrics.records)
    # From then on each epoch's verify held the restored ones to the key.
    dek = sim.server.group_key()
    for rid in restored:
        if rid in sim.members and rid not in sim.sync_tracker.desynced:
            assert isinstance(sim.members[rid], Member)
            assert sim.members[rid].holds(dek.key_id, dek.version)
