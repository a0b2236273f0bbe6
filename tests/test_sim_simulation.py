"""Integration tests for the end-to-end rekeying simulation."""

import pytest

from repro.members.durations import TwoClassDuration
from repro.members.population import LossPopulation
from repro.server.losshomog import LossHomogenizedServer
from repro.server.onetree import OneTreeServer
from repro.server.twopartition import TwoPartitionServer
from repro.sim.metrics import RekeyRecord, SimulationMetrics
from repro.sim.simulation import GroupRekeyingSimulation, SimulationConfig
from repro.transport.wka_bkr import WkaBkrProtocol

FAST = dict(
    arrival_rate=0.4,
    rekey_period=60.0,
    horizon=1200.0,
    duration_model=TwoClassDuration(180.0, 2400.0, 0.7),
)


def run(server, seed=3, **overrides):
    config = SimulationConfig(**{**FAST, **overrides, "seed": seed})
    return GroupRekeyingSimulation(server, config).run()


class TestSecurityInvariants:
    """verify=True makes the simulation assert, after every rekeying, that
    every member holds the current group key and no recently departed
    member does — across every scheme."""

    def test_one_keytree(self):
        metrics = run(OneTreeServer(degree=4))
        assert metrics.verification_checks == metrics.rekey_count > 0

    @pytest.mark.parametrize("mode", ["qt", "tt", "pt"])
    def test_two_partition(self, mode):
        metrics = run(TwoPartitionServer(mode=mode, s_period=240.0))
        assert metrics.verification_checks == metrics.rekey_count > 0

    @pytest.mark.parametrize("placement", ["loss", "random"])
    def test_loss_homogenized(self, placement):
        metrics = run(
            LossHomogenizedServer(class_rates=(0.2, 0.02), placement=placement),
            loss_population=LossPopulation.two_point(),
        )
        assert metrics.verification_checks == metrics.rekey_count > 0


class TestJoinAttributes:
    """Which attributes a scheme's ``join`` takes is decided once, when
    the simulation is built; the same keywords reach every join."""

    @pytest.mark.parametrize(
        "make_server,expected",
        [
            (lambda: OneTreeServer(degree=4), set()),
            (lambda: TwoPartitionServer(mode="tt", s_period=240.0), {"member_class"}),
            (lambda: TwoPartitionServer(mode="pt", s_period=240.0), {"member_class"}),
            (
                lambda: LossHomogenizedServer(class_rates=(0.2, 0.02), placement="loss"),
                {"loss_rate"},
            ),
            (
                lambda: LossHomogenizedServer(class_rates=(0.2, 0.02), placement="random"),
                set(),
            ),
        ],
    )
    def test_scheme_attributes_reach_every_join(self, make_server, expected):
        server = make_server()
        seen = []
        real_join = server.join

        def join(member_id, at_time, **attributes):
            seen.append(attributes)
            return real_join(member_id, at_time=at_time, **attributes)

        server.join = join
        config = SimulationConfig(
            **{**FAST, "loss_population": LossPopulation.two_point(), "seed": 3}
        )
        simulation = GroupRekeyingSimulation(server, config)
        simulation.run()
        assert len(seen) > 100
        assert all(set(attributes) == expected for attributes in seen)
        if "loss_rate" in expected:
            assert {a["loss_rate"] for a in seen} == {0.2, 0.02}
        if "member_class" in expected:
            assert {a["member_class"] for a in seen} == {"Cs", "Cl"}


class TestTransportIntegration:
    def test_wka_bkr_delivers_every_rekey(self):
        metrics = run(
            OneTreeServer(degree=4),
            loss_population=LossPopulation.two_point(),
            transport=WkaBkrProtocol(keys_per_packet=8),
        )
        assert metrics.total_transport_keys >= metrics.total_cost > 0

    def test_transport_keys_zero_without_transport(self):
        metrics = run(OneTreeServer(degree=4))
        assert metrics.total_transport_keys == 0


class TestDeterminism:
    def test_same_seed_same_run(self):
        a = run(OneTreeServer(degree=4), seed=9)
        b = run(OneTreeServer(degree=4), seed=9)
        assert [r.cost for r in a.records] == [r.cost for r in b.records]
        assert a.joins_total == b.joins_total

    def test_different_seeds_differ(self):
        a = run(OneTreeServer(degree=4), seed=9)
        b = run(OneTreeServer(degree=4), seed=10)
        assert [r.cost for r in a.records] != [r.cost for r in b.records]


class TestMetrics:
    def test_record_counting(self):
        metrics = SimulationMetrics()
        metrics.add(
            RekeyRecord(
                time=60.0,
                epoch=1,
                cost=10,
                joined=3,
                departed=1,
                migrated=0,
                group_size=2,
                breakdown={"tree": 10},
            )
        )
        metrics.add(
            RekeyRecord(
                time=120.0,
                epoch=2,
                cost=6,
                joined=0,
                departed=2,
                migrated=1,
                group_size=0,
                breakdown={"tree": 4, "group-key": 2},
            )
        )
        assert metrics.total_cost == 16
        assert metrics.joins_total == 3
        assert metrics.departures_total == 3
        assert metrics.mean_cost() == 8.0
        assert metrics.mean_cost(skip=1) == 6.0
        assert metrics.breakdown_totals() == {"tree": 14, "group-key": 2}

    def test_empty_metrics_are_zero(self):
        metrics = SimulationMetrics()
        assert metrics.mean_cost() == 0.0
        assert metrics.mean_group_size() == 0.0

    def test_group_size_tracks_population(self):
        metrics = run(OneTreeServer(degree=4), seed=2)
        assert metrics.mean_group_size(skip=5) > 0
