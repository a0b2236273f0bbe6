"""Unit tests for the one-way function tree (OFT) extension.

Members are driven *only* by the broadcasts (plus the joiner's bootstrap
state), proving the protocol is self-contained.
"""

import math

import pytest

from repro.crypto.material import KeyGenerator
from repro.keytree.oft import OneWayFunctionTree


def drive(states, broadcast):
    """Deliver a broadcast to every tracked member state."""
    for state in states.values():
        state.process_broadcast(broadcast)


def build(count, seed=6):
    """An OFT with ``count`` members whose states followed every broadcast."""
    oft = OneWayFunctionTree(keygen=KeyGenerator(seed))
    states = {}
    for i in range(count):
        state, broadcast = oft.join(f"m{i}")
        drive(states, broadcast)
        states[f"m{i}"] = state
    return oft, states


class TestJoin:
    def test_single_member_is_its_own_root(self):
        oft, states = build(1)
        assert oft.size == 1
        assert states["m0"].group_key() == oft.group_key()

    @pytest.mark.parametrize("count", [2, 3, 5, 8, 16, 33])
    def test_all_members_agree_on_group_key(self, count):
        oft, states = build(count)
        server_key = oft.group_key()
        for member_id, state in states.items():
            assert state.group_key() == server_key, member_id

    def test_joiner_cannot_compute_previous_group_key(self):
        oft, states = build(4)
        old = oft.group_key()
        state, broadcast = oft.join("late")
        drive(states, broadcast)
        assert state.group_key() == oft.group_key()
        assert state.group_key() != old

    def test_duplicate_join_rejected(self):
        oft, __ = build(3)
        with pytest.raises(ValueError):
            oft.join("m0")

    def test_join_cost_is_logarithmic(self):
        oft, states = build(64)
        __, broadcast = oft.join("extra")
        height = oft.height()
        # One blind per level plus the displaced leaf's refresh and the
        # joint's pair of blinds.
        assert broadcast.cost <= height + 3


class TestLeave:
    @pytest.mark.parametrize("count", [2, 3, 8, 17])
    def test_survivors_agree_after_leave(self, count):
        oft, states = build(count)
        victim = "m0"
        broadcast = oft.leave(victim)
        del states[victim]
        drive(states, broadcast)
        server_key = oft.group_key()
        for member_id, state in states.items():
            assert state.group_key() == server_key, member_id

    def test_evicted_member_cannot_compute_new_key(self):
        oft, states = build(8)
        evicted_state = states.pop("m3")
        broadcast = oft.leave("m3")
        drive(states, broadcast)
        evicted_state.process_broadcast(broadcast)
        assert evicted_state.group_key() != oft.group_key()

    def test_leave_unknown_raises(self):
        oft, __ = build(2)
        with pytest.raises(KeyError):
            oft.leave("ghost")

    def test_last_member_leaves_empty_tree(self):
        oft, __ = build(1)
        oft.leave("m0")
        assert oft.size == 0
        with pytest.raises(RuntimeError):
            oft.group_key()

    def test_leave_cost_is_logarithmic(self):
        oft, states = build(64)
        broadcast = oft.leave("m10")
        assert broadcast.cost <= oft.height() + 2

    def test_churn_maintains_agreement(self):
        oft, states = build(9)
        import random

        rng = random.Random(1)
        counter = 9
        for __ in range(30):
            if states and rng.random() < 0.5:
                victim = rng.choice(sorted(states))
                del states[victim]
                broadcast = oft.leave(victim)
                drive(states, broadcast)
            else:
                member = f"m{counter}"
                counter += 1
                state, broadcast = oft.join(member)
                drive(states, broadcast)
                states[member] = state
        server_key = oft.group_key()
        for member_id, state in states.items():
            assert state.group_key() == server_key, member_id


class TestCostComparison:
    def test_oft_beats_lkh_per_eviction(self):
        """OFT sends ~h keys per eviction vs ~d*h for LKH (the [BM00]
        halving at d=2)."""
        from repro.testing.lkh import LkhRekeyer
        from repro.testing.tree import KeyTree

        oft, __ = build(64)
        oft_cost = oft.leave("m20").cost

        lkh_tree = KeyTree(degree=2, keygen=KeyGenerator(8))
        lkh = LkhRekeyer(lkh_tree)
        for i in range(64):
            lkh_tree.add_member(f"m{i}")
        lkh_cost = lkh.leave("m20").cost
        assert oft_cost < lkh_cost
