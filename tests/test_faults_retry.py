"""Bounded retry: RetryPolicy, TransportExhausted, and abandonment."""

import pytest

from repro.crypto.material import KeyGenerator
from repro.crypto.wrap import wrap_key
from repro.faults.retry import RetryPolicy
from repro.faults.schedule import Blackout, ChurnStorm, FaultSchedule
from repro.members.population import LossPopulation
from repro.network.channel import MulticastChannel
from repro.network.loss import BernoulliLoss, GilbertElliottLoss
from repro.obs import observe
from repro.server.onetree import OneTreeServer
from repro.sim.simulation import GroupRekeyingSimulation, SimulationConfig
from repro.transport.fec import ProactiveFecProtocol
from repro.transport.multisend import MultiSendProtocol
from repro.transport.session import TransportExhausted
from repro.transport.wka_bkr import WkaBkrProtocol

from tests.helpers import task_of


def _task(keys=6, receivers=("r0", "r1", "r2")):
    gen = KeyGenerator(31)
    wrapping = gen.generate("kek")
    encrypted = [wrap_key(wrapping, gen.generate(f"k{i}")) for i in range(keys)]
    interest = {rid: set(range(keys)) for rid in receivers}
    return task_of(encrypted, interest)


def _channel(loss_by_receiver):
    channel = MulticastChannel(seed=1)
    for rid, loss in loss_by_receiver.items():
        channel.subscribe(rid, loss)
    return channel


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_rounds=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(max_delay=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(abandon_after=0)

    def test_backoff_schedule(self):
        policy = RetryPolicy(base_delay=1.0, backoff=2.0, max_delay=5.0)
        assert policy.delay_before_round(0) == 0.0
        assert policy.delay_before_round(1) == 1.0
        assert policy.delay_before_round(2) == 2.0
        assert policy.delay_before_round(3) == 4.0
        assert policy.delay_before_round(4) == 5.0  # capped
        assert policy.total_delay(4) == pytest.approx(0.0 + 1.0 + 2.0 + 4.0)

    def test_abandonment_threshold(self):
        policy = RetryPolicy(max_rounds=10, abandon_after=3)
        assert not policy.should_abandon(2)
        assert policy.should_abandon(3)
        assert policy.should_abandon(4)
        assert not RetryPolicy(max_rounds=10).should_abandon(9)


class TestWkaBkrExhaustion:
    def test_pathological_loss_raises_typed_exception(self):
        """An absorbing-bad Gilbert–Elliott chain (loss -> 1.0) must hit
        the hard cap and raise TransportExhausted, not loop forever."""
        always_lost = GilbertElliottLoss(
            p_good_to_bad=1.0, p_bad_to_good=0.0, good_loss=1.0, bad_loss=1.0
        )
        channel = _channel({"r0": BernoulliLoss(0.0), "r1": always_lost})
        protocol = WkaBkrProtocol(keys_per_packet=4, max_rounds=6)
        with pytest.raises(TransportExhausted) as excinfo:
            protocol.run(_task(receivers=("r0", "r1")), channel)
        exc = excinfo.value
        assert exc.pending == frozenset({"r1"})
        # The partial result still accounts for the work actually done.
        assert exc.result.rounds == 6
        assert exc.result.packets_sent > 0
        assert not exc.result.satisfied
        assert "r1" in exc.result.late

    def test_retry_policy_caps_rounds_and_accrues_backoff(self):
        always_lost = BernoulliLoss(0.999999999)
        channel = _channel({"r0": always_lost})
        policy = RetryPolicy(max_rounds=4, base_delay=1.0, backoff=2.0, max_delay=60.0)
        protocol = WkaBkrProtocol(keys_per_packet=4, retry=policy)
        with pytest.raises(TransportExhausted) as excinfo:
            protocol.run(_task(receivers=("r0",)), channel)
        assert excinfo.value.result.rounds == 4
        # Backoff before rounds 1..3: 1 + 2 + 4 simulated seconds.
        assert excinfo.value.result.elapsed == pytest.approx(7.0)

    def test_abandonment_degrades_instead_of_exhausting(self):
        always_lost = BernoulliLoss(0.999999999)
        channel = _channel({"ok": BernoulliLoss(0.0), "doomed": always_lost})
        policy = RetryPolicy(max_rounds=10, abandon_after=3)
        protocol = WkaBkrProtocol(keys_per_packet=4, retry=policy)
        result = protocol.run(_task(receivers=("ok", "doomed")), channel)
        assert result.satisfied  # everyone the transport still owns is done
        assert result.abandoned == {"doomed"}
        assert result.rounds == 3

    def test_no_retry_clean_delivery_unchanged(self):
        channel = _channel({"r0": BernoulliLoss(0.0), "r1": BernoulliLoss(0.0)})
        protocol = WkaBkrProtocol(keys_per_packet=4)
        result = protocol.run(_task(receivers=("r0", "r1")), channel)
        assert result.satisfied
        assert result.abandoned == set()
        assert result.late == set()
        assert result.elapsed == 0.0


class TestFecExhaustion:
    def test_pathological_loss_raises_typed_exception(self):
        always_lost = BernoulliLoss(0.999999999)
        channel = _channel({"r0": BernoulliLoss(0.0), "r1": always_lost})
        protocol = ProactiveFecProtocol(keys_per_packet=4, block_size=2, max_rounds=5)
        with pytest.raises(TransportExhausted) as excinfo:
            protocol.run(_task(receivers=("r0", "r1")), channel)
        assert excinfo.value.pending == frozenset({"r1"})
        assert excinfo.value.result.rounds == 5

    def test_abandonment_unblocks_the_block(self):
        always_lost = BernoulliLoss(0.999999999)
        channel = _channel({"ok": BernoulliLoss(0.0), "doomed": always_lost})
        policy = RetryPolicy(max_rounds=10, abandon_after=2)
        protocol = ProactiveFecProtocol(keys_per_packet=4, block_size=2, retry=policy)
        result = protocol.run(_task(receivers=("ok", "doomed")), channel)
        assert result.satisfied
        assert result.abandoned == {"doomed"}
        assert result.rounds == 2


class TestMultiSendExhaustion:
    """Multi-send degrades like the other two transports: typed exhaustion
    at its round cap, which the simulator turns into unicast catch-up."""

    def test_round_cap_raises_typed_exception(self):
        always_lost = BernoulliLoss(0.999999999)
        channel = _channel({"r0": BernoulliLoss(0.0), "r1": always_lost})
        protocol = MultiSendProtocol(keys_per_packet=4, replication=1, max_rounds=5)
        with pytest.raises(TransportExhausted) as excinfo:
            protocol.run(_task(receivers=("r0", "r1")), channel)
        exc = excinfo.value
        assert exc.pending == frozenset({"r1"})
        assert exc.result.rounds == 5
        assert not exc.result.satisfied
        assert exc.result.late == {"r1"}
        assert exc.result.completed == {"r0": 0.0}

    def test_blacked_out_receivers_are_abandoned_and_resynced(self):
        """A Blackout over a rekey point (BernoulliLoss refuses rate 1.0)
        used to end the run in a bare RuntimeError."""
        horizon = 360.0
        schedule = FaultSchedule.of(
            [
                ChurnStorm(at_time=0.0, joins=40),
                Blackout(start=50.0, duration=30.0, fraction=0.3),
            ]
        )
        config = SimulationConfig(
            arrival_rate=0.05,
            rekey_period=60.0,
            horizon=horizon,
            loss_population=LossPopulation.two_point(),
            transport=MultiSendProtocol(keys_per_packet=8, max_rounds=4),
            verify=True,
            seed=3,
            fault_schedule=schedule,
            recovery_delay=30.0,
        )
        sim = GroupRekeyingSimulation(OneTreeServer(), config)
        with observe() as session:
            metrics = sim.run()
        blacked_out = metrics.records[0]
        assert blacked_out.abandoned > 0
        assert blacked_out.transport_rounds == 4
        assert sim.channel.blackout_losses > 0
        # Everyone abandoned came back over unicast, and every later epoch
        # (verify=True throughout) delivered to the whole group again.
        assert len(sim.sync_tracker.events) == metrics.abandoned_total
        assert all(record.abandoned == 0 for record in metrics.records[1:])
        assert metrics.verification_checks == len(metrics.records)
        # ... and the delivery now shows up in traces like the others'.
        rounds = [s for s in session.tracer.spans if s.name == "transport.round"]
        assert {s.attributes["protocol"] for s in rounds} == {"multi-send"}
        assert any(e["type"] == "retry_round" for e in session.events.records)
