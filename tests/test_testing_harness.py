"""Meta-tests for the conformance subsystem itself.

A verification harness is only worth trusting if it *fails* on broken
servers, so these tests feed it deliberately sabotaged mutants of
:class:`OneTreeServer` — each a realistic implementation mistake — and
require an :class:`InvariantViolation` naming the right problem.
"""

import pytest

from repro.crypto.wrap import wrap_key
from repro.server.base import BatchResult
from repro.server.onetree import OneTreeServer
from repro.testing import (
    ConformanceHarness,
    InvariantViolation,
    Scenario,
    ShadowGroup,
)
from repro.testing.oracle import with_object_trees

from tests.helpers import PrivateIndexHarness

CHURN = Scenario.parse("+a +b +c . -b .", name="churn")


def run_against(server, scenario=CHURN, harness_cls=ConformanceHarness):
    return scenario.run(harness_cls(server))


# ----------------------------------------------------------------------
# mutants the harness must reject
# ----------------------------------------------------------------------


class NoRefreshServer(OneTreeServer):
    """Departures prune the tree but never refresh any key."""

    def _process_batch(self, result, joins, leaves, now):
        if leaves and not joins:
            for member_id in leaves:
                self.tree.remove_member(member_id)
            return
        super()._process_batch(result, joins, leaves, now)


class LeakyWrapServer(OneTreeServer):
    """Wraps the fresh group key under the previous one on departures,
    so an evicted member can chain forward to current traffic."""

    def _process_batch(self, result, joins, leaves, now):
        previous = self.tree.root.key if self.tree.size else None
        super()._process_batch(result, joins, leaves, now)
        if leaves and previous is not None:
            result.extend("leak", [wrap_key(previous, self.tree.root.key)])


class OwfOnLeaveServer(OneTreeServer):
    """Uses one-way advances to 'refresh' after a departure — the evicted
    member can run the same hash chain (the misuse the paper's LKH+
    discussion warns about).  Assigns node keys, so it is built on the
    object trees, whose nodes carry them."""

    def __init__(self):
        super().__init__()
        with_object_trees(self)

    def _process_batch(self, result, joins, leaves, now):
        if leaves and not joins and self.tree.size:
            for member_id in leaves:
                self.tree.remove_member(member_id)
            for node in list(self.tree.iter_nodes()):
                if not node.is_leaf:
                    node.key = node.key.advance()
                    result.advanced.append((node.key.key_id, node.key.version))
            return
        super()._process_batch(result, joins, leaves, now)


class LyingEpochServer(OneTreeServer):
    def rekey(self, now=0.0):
        result = super().rekey(now=now)
        result.epoch += 1
        return result


class LyingBreakdownServer(OneTreeServer):
    def rekey(self, now=0.0):
        result = super().rekey(now=now)
        if result.breakdown:
            result.breakdown["tree"] += 1
        return result


class ForgetfulJoinServer(OneTreeServer):
    """Omits a joiner from the reported batch result."""

    def rekey(self, now=0.0):
        result = super().rekey(now=now)
        if result.joined:
            result.joined = result.joined[:-1]
        return result


class BrokenResyncServer(OneTreeServer):
    """Resync omits the group key — recovered members stay deaf."""

    def _current_keys_of(self, member_id):
        return super()._current_keys_of(member_id)[:-1]


mutants = pytest.mark.parametrize(
    "server_cls, fragment",
    [
        (NoRefreshServer, "no key material"),
        (LeakyWrapServer, "derive the current group key"),
        (OwfOnLeaveServer, "derive the current group key"),
        (LyingEpochServer, "expected epoch"),
        (LyingBreakdownServer, "breakdown attributes"),
        (ForgetfulJoinServer, "joined"),
    ],
    ids=lambda v: getattr(v, "__name__", v),
)


@mutants
def test_harness_rejects_mutant(server_cls, fragment):
    with pytest.raises(InvariantViolation, match=fragment):
        run_against(server_cls())


@mutants
def test_harness_rejects_mutant_on_private_indexes(server_cls, fragment):
    """Same verdicts when every receiver opens every wrap itself instead
    of sharing the payload's index and its opened-wrap table."""
    with pytest.raises(InvariantViolation, match=fragment):
        run_against(server_cls(), harness_cls=PrivateIndexHarness)


def test_harness_rejects_broken_resync():
    with pytest.raises(InvariantViolation, match="resync failed"):
        Scenario.parse("+a +b . !a", name="x").run(
            ConformanceHarness(BrokenResyncServer())
        )


def test_correct_server_passes_the_same_scenarios():
    harness = run_against(OneTreeServer())
    assert harness.epochs == 2
    assert harness.total_cost() > 0
    harness.check_all_resyncs()


# ----------------------------------------------------------------------
# shadow model unit behaviour
# ----------------------------------------------------------------------


def test_shadow_rejects_duplicate_join():
    shadow = ShadowGroup()
    shadow.join("a")
    with pytest.raises(InvariantViolation, match="duplicate join"):
        shadow.join("a")


def test_shadow_rejects_unknown_departure():
    with pytest.raises(InvariantViolation, match="unknown member"):
        ShadowGroup().leave("ghost")


def test_shadow_join_leave_same_period_vanishes():
    shadow = ShadowGroup()
    shadow.join("a")
    shadow.leave("a")
    assert not shadow.pending_joins and not shadow.pending_leaves


def test_shadow_audits_real_server_stream(rekeyer_server):
    server, shadow = rekeyer_server, ShadowGroup()
    for member_id in ("a", "b", "c"):
        server.join(member_id)
        shadow.join(member_id)
    shadow.audit(server, server.rekey())
    server.leave("b")
    shadow.leave("b")
    shadow.audit(server, server.rekey())
    assert shadow.members == {"a", "c"}


@pytest.fixture
def rekeyer_server():
    return OneTreeServer(degree=2)


# ----------------------------------------------------------------------
# scenario parser
# ----------------------------------------------------------------------


def test_scenario_parse_round_trip():
    scenario = Scenario.parse("+a +b@Cl +c@0.2 . t+600 -a . !b !*", name="p")
    kinds = [op[0] for op in scenario.ops]
    assert kinds == [
        "join", "join", "join", "rekey", "tick", "leave", "rekey",
        "resync", "resync",
    ]
    assert scenario.ops[1][2] == {"member_class": "Cl"}
    assert scenario.ops[2][2] == {"loss_rate": 0.2}
    assert scenario.ops[4][1] == 600.0
    assert scenario.ops[7][1] == "b" and scenario.ops[8][1] is None


@pytest.mark.parametrize("bad", ["?x", "+", "-", "t+abc"])
def test_scenario_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        Scenario.parse(bad)


def test_harness_tracks_never_admitted_ghost():
    harness = ConformanceHarness(OneTreeServer())
    harness.join("a")
    harness.join("ghost")
    harness.leave("ghost")  # same period: vanishes without keys
    result = harness.rekey()
    assert result.joined == ["a"]
    assert "ghost" not in harness.members
    assert not harness.adversaries


def test_harness_time_only_moves_forward():
    harness = ConformanceHarness(OneTreeServer())
    harness.advance_time(10.0)
    with pytest.raises(ValueError):
        harness.advance_time(-1.0)
