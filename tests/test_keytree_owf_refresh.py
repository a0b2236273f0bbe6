"""Tests for ELK/LKH+-style one-way join refresh (`join_refresh="owf"`)."""

import pytest

from repro.crypto.material import KeyGenerator
from repro.members.member import Member
from repro.server.onetree import OneTreeServer
from repro.testing.lkh import LkhRekeyer
from repro.testing.tree import KeyTree

from tests.helpers import populate


def make_member_with_path(tree, member_id):
    member = Member(member_id, tree.leaf_of(member_id).key)
    for node in tree.path_of(member_id):
        member.install(node.key)
    return member


class TestAdvance:
    def test_advance_bumps_version_one_way(self):
        key = KeyGenerator(0).generate("k", version=3)
        advanced = key.advance()
        assert advanced.key_id == "k"
        assert advanced.version == 4
        assert advanced.secret != key.secret
        assert key.advance() == advanced  # deterministic

    def test_member_catches_up_along_the_chain(self):
        gen = KeyGenerator(1)
        member = Member("a", gen.generate("member:a"))
        base = gen.generate("aux", version=1)
        member.install(base)
        # Missed versions 2 and 3; one announcement of version 4 suffices.
        refreshed = member.apply_advances([("aux", 4)])
        assert member.key("aux").version == 4
        assert member.key("aux") == base.advance().advance().advance()
        assert len(refreshed) == 1

    def test_apply_advances_ignores_unknown_and_current(self):
        gen = KeyGenerator(2)
        member = Member("a", gen.generate("member:a"))
        member.install(gen.generate("aux", version=5))
        assert member.apply_advances([("aux", 5), ("other", 3)]) == []


class TestOwfBatch:
    def test_join_only_batch_advances_existing_keys(self, keygen):
        tree = KeyTree(degree=4, keygen=keygen)
        rekeyer = LkhRekeyer(tree)
        populate(rekeyer, 16)
        veteran = make_member_with_path(tree, "m0")
        message = rekeyer.rekey_batch(
            joins=[("late", None)], join_refresh="owf"
        )
        # No wrap targets a pre-existing member: only joiner bootstrap
        # (and possibly split-joint wraps) are on the wire.
        veteran.process_rekey(message)
        root = tree.root.key
        assert veteran.holds(root.key_id, root.version)
        assert message.advanced, "pre-existing path keys should advance"

    def test_joiner_bootstrap_works(self, keygen):
        tree = KeyTree(degree=4, keygen=keygen)
        rekeyer = LkhRekeyer(tree)
        populate(rekeyer, 16)
        message = rekeyer.rekey_batch(joins=[("late", None)], join_refresh="owf")
        joiner = Member("late", tree.leaf_of("late").key)
        joiner.process_rekey(message)
        root = tree.root.key
        assert joiner.holds(root.key_id, root.version)

    def test_backward_secrecy_holds(self, keygen):
        """The joiner gets H(K), from which K is not computable; the old
        version never appears in its state."""
        tree = KeyTree(degree=4, keygen=keygen)
        rekeyer = LkhRekeyer(tree)
        populate(rekeyer, 16)
        old_root = tree.root.key
        message = rekeyer.rekey_batch(joins=[("late", None)], join_refresh="owf")
        joiner = Member("late", tree.leaf_of("late").key)
        joiner.process_rekey(message)
        assert not joiner.holds(old_root.key_id, old_root.version)

    def test_cheaper_than_random_refresh(self):
        """With open leaf slots (no splits), OWF ships only the joiner
        bootstraps (~h keys) where random refresh ships ~d·h child wraps.
        On a *saturated* tree every join splits a leaf and the two modes
        converge — so the comparison uses a non-full tree."""

        def cost(mode):
            tree = KeyTree(degree=4, keygen=KeyGenerator(9))
            rekeyer = LkhRekeyer(tree)
            populate(rekeyer, 60)
            return rekeyer.rekey_batch(
                joins=[(f"late{i}", None) for i in range(3)],
                join_refresh=mode,
            ).cost

        assert cost("owf") < cost("random")

    def test_falls_back_to_random_on_departures(self, keygen):
        tree = KeyTree(degree=4, keygen=keygen)
        rekeyer = LkhRekeyer(tree)
        populate(rekeyer, 16)
        message = rekeyer.rekey_batch(
            joins=[("late", None)],
            departures=["m0"],
            join_refresh="owf",
        )
        assert message.advanced == []  # random refresh path taken
        evicted_root = tree.root.key
        assert message.cost > 0

    def test_invalid_mode_rejected(self, rekeyer):
        with pytest.raises(ValueError):
            rekeyer.rekey_batch(joins=[("a", None)], join_refresh="psychic")


class TestServerIntegration:
    def test_owf_server_join_only_periods_are_cheap(self):
        def total_cost(mode):
            server = OneTreeServer(degree=4, join_refresh=mode)
            # Established group first (batch admission), then a run of
            # join-only periods — the growth phase OWF optimizes.
            for i in range(40):
                server.join(f"seed{i}", at_time=0.0)
            server.rekey(now=60.0)
            cost = 0
            for period in range(1, 6):
                for i in range(4):
                    server.join(f"p{period}m{i}", at_time=period * 60.0)
                cost += server.rekey(now=(period + 1) * 60.0).cost
            return cost

        assert total_cost("owf") < total_cost("random")

    def test_owf_server_passes_full_simulation_invariants(self):
        from repro.members.durations import TwoClassDuration
        from repro.sim.simulation import GroupRekeyingSimulation, SimulationConfig

        config = SimulationConfig(
            arrival_rate=0.4,
            rekey_period=60.0,
            horizon=1200.0,
            duration_model=TwoClassDuration(240.0, 2000.0, 0.6),
            seed=17,
        )
        server = OneTreeServer(degree=4, join_refresh="owf")
        metrics = GroupRekeyingSimulation(server, config).run()
        assert metrics.verification_checks == metrics.rekey_count > 0

    def test_invalid_server_mode_rejected(self):
        with pytest.raises(ValueError):
            OneTreeServer(join_refresh="psychic")
