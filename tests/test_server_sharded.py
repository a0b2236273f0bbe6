"""ShardedOneTreeServer: determinism contract, parity, DEK stitch, snapshots.

``shards`` is a *protocol* parameter (it fixes placement and cost); a
rerun of the same batches must emit byte-identical payloads.  And
``shards=1`` must reproduce the unsharded one-keytree scheme exactly
(same bytes, same per-receiver decrypt counts), so the sharded server is
a strict generalization, not a different scheme — both are the one
partitioned server under hash placement.
"""

import json
import pickle

import pytest

from repro.crypto.material import KeyGenerator
from repro.members.member import Member
from repro.server.onetree import OneTreeServer
from repro.server.sharded import ShardedOneTreeServer
from repro.server.snapshot import restore_server, snapshot_server


def churn_plan(rounds=4):
    """A deterministic join/leave schedule shared by all parity runs."""
    plan = [([f"m{i}" for i in range(24)], [])]
    plan.append((["x0", "x1"], ["m3", "m7", "m11"]))
    plan.append(([], ["m1", "x0", "m20"]))
    plan.append((["y0", "y1", "y2"], ["m5"]))
    return plan[: rounds]


def run_transcript(server, *, with_ciphertext=True):
    """(cost, wire-tuples, advanced) per round."""
    transcript = []
    t = 0.0
    for joins, departures in churn_plan():
        for m in joins:
            server.join(m, t)
        for m in departures:
            server.leave(m, t)
        result = server.rekey(now=t)
        wire = []
        for ek in result.encrypted_keys:
            row = (
                ek.wrapping_id,
                ek.wrapping_version,
                ek.payload_id,
                ek.payload_version,
            )
            if with_ciphertext:
                row = row + (ek.ciphertext,)
            wire.append(row)
        transcript.append((result.cost, tuple(wire), tuple(result.advanced)))
        t += 10.0
    return transcript


class TestBackendInvariance:
    """There is one execution path; what is left to pin is that it is a
    function of the batches alone."""

    def sharded(self, **kwargs):
        return ShardedOneTreeServer(
            shards=kwargs.pop("shards", 4),
            degree=4,
            keygen=KeyGenerator(seed=41),
            **kwargs,
        )

    def test_serial_rerun_is_byte_identical(self):
        first = run_transcript(self.sharded())
        second = run_transcript(self.sharded())
        assert first == second

    def test_execution_options_are_gone(self):
        for removed in ("workers", "backend", "payload"):
            with pytest.raises(TypeError):
                self.sharded(**{removed: 1})
        assert not hasattr(self.sharded(), "close")


class TestSingleShardParity:
    """``shards=1``: cost- and delivery-identical to OneTreeServer."""

    def run_costs_and_decrypts(self, server):
        costs = []
        decrypts = {}
        members = {}
        t = 0.0
        for joins, departures in churn_plan():
            regs = {m: server.join(m, t) for m in joins}
            for m in departures:
                server.leave(m, t)
            result = server.rekey(now=t)
            costs.append(result.cost)
            for m in departures:
                members.pop(m, None)
            index = result.index()
            for member_id, member in members.items():
                wanted = index.closure(member.held_versions())
                decrypts.setdefault(member_id, []).append(len(wanted))
                member.absorb(result.encrypted_keys, index=index)
            for member_id, reg in regs.items():
                member = Member(member_id, reg.individual_key)
                member.absorb(result.encrypted_keys, index=index)
                members[member_id] = member
            dek = server.group_key()
            for member in members.values():
                assert member.holds(dek.key_id, dek.version)
            t += 10.0
        return costs, decrypts

    def test_matches_one_tree_server(self):
        one_costs, one_decrypts = self.run_costs_and_decrypts(
            OneTreeServer(degree=4)
        )
        sharded_costs, sharded_decrypts = self.run_costs_and_decrypts(
            ShardedOneTreeServer(shards=1)
        )
        assert sharded_costs == one_costs
        assert sharded_decrypts == one_decrypts

    def test_single_shard_payload_is_the_one_tree_payload_renamed(self):
        """Same class, same loop, no DEK above the root: wrap for wrap the
        single shard emits the one keytree's payload, with its nodes named
        ``.../tree/shard0/...`` and their secrets off the shard's stream."""
        one = run_transcript(OneTreeServer(degree=4), with_ciphertext=False)
        sharded = run_transcript(
            ShardedOneTreeServer(shards=1, degree=4), with_ciphertext=False
        )
        renamed = [
            (
                cost,
                tuple(
                    (wid.replace("/shard0", ""), wv, pid.replace("/shard0", ""), pv)
                    for wid, wv, pid, pv in wire
                ),
                tuple((key_id.replace("/shard0", ""), v) for key_id, v in advanced),
            )
            for cost, wire, advanced in sharded
        ]
        assert renamed == one

    def test_single_shard_group_key_is_shard_root(self):
        server = ShardedOneTreeServer(shards=1)
        server.join("a", 0.0)
        server.join("b", 0.0)
        server.rekey(now=0.0)
        assert server.group_key() == server.partitions[0].tree.root.key
        assert server._dek is None


class TestDekStitch:
    def build(self, shards=4, count=16):
        server = ShardedOneTreeServer(shards=shards, degree=4)
        for i in range(count):
            server.join(f"m{i}", 0.0)
        server.rekey(now=0.0)
        return server

    def test_departure_wraps_dek_under_every_populated_root(self):
        server = self.build()
        server.leave("m3", 10.0)
        result = server.rekey(now=10.0)
        dek = server.group_key()
        dek_wraps = [
            ek for ek in result.encrypted_keys if ek.payload_id == dek.key_id
        ]
        roots = {
            part.tree.root.key.key_id for part in server.partitions if part.size
        }
        assert {ek.wrapping_id for ek in dek_wraps} == roots
        assert all(ek.payload_version == dek.version for ek in dek_wraps)

    def test_join_only_batch_wraps_dek_under_previous_dek(self):
        server = self.build()
        previous = server.group_key()
        server.join("late", 10.0)
        result = server.rekey(now=10.0)
        dek = server.group_key()
        assert dek.version == previous.version + 1
        wrappings = {
            ek.wrapping_id: ek.wrapping_version
            for ek in result.encrypted_keys
            if ek.payload_id == dek.key_id
        }
        assert wrappings[previous.key_id] == previous.version

    def test_breakdown_attributes_stitch_separately(self):
        server = self.build()
        server.leave("m1", 10.0)
        result = server.rekey(now=10.0)
        assert "group-key" in result.breakdown
        assert sum(result.breakdown.values()) == result.cost


class TestShardedSnapshot:
    """Satellite: per-shard heaps + RNG stream states round-trip so a
    restored sharded server re-derives byte-identical payloads."""

    def build_mid_scenario(self):
        server = ShardedOneTreeServer(
            shards=4, degree=4, keygen=KeyGenerator(seed=42)
        )
        for i in range(20):
            server.join(f"m{i}", 0.0)
        server.rekey(now=0.0)
        # Extra churn so the per-shard attachment heaps hold stale-depth
        # and dead entries (the hard case for heap serialization).
        for m in ("m2", "m9", "m13"):
            server.leave(m, 10.0)
        server.join("w0", 10.0)
        server.rekey(now=10.0)
        return server

    def continue_run(self, target):
        target.leave("m4", 20.0)
        target.join("late1", 20.0)
        target.join("late2", 20.0)
        return target.rekey(now=20.0)

    def test_restored_server_re_derives_identical_payloads(self):
        server = self.build_mid_scenario()
        state = json.loads(json.dumps(snapshot_server(server)))
        twin = restore_server(state)
        original = self.continue_run(server)
        restored = self.continue_run(twin)
        assert restored.epoch == original.epoch
        assert restored.encrypted_keys == original.encrypted_keys
        assert [
            (ek.ciphertext) for ek in restored.encrypted_keys
        ] == [(ek.ciphertext) for ek in original.encrypted_keys]
        assert twin.group_key() == server.group_key()

    def test_restore_crosses_backends(self):
        """The execution fields old sharded snapshots carried say nothing
        about the state: whatever they hold, the restored server is the
        same one and re-derives the identical payload."""
        server = self.build_mid_scenario()
        state = json.loads(json.dumps(snapshot_server(server)))
        assert not {"backend", "workers", "payload"} & set(state)
        state.update(backend="thread", workers=2, payload="handles")
        twin = restore_server(state)
        original = self.continue_run(server)
        restored = self.continue_run(twin)
        assert restored.encrypted_keys == original.encrypted_keys

    def test_snapshot_preserves_shard_assignment(self):
        server = self.build_mid_scenario()
        twin = restore_server(json.loads(json.dumps(snapshot_server(server))))
        assert twin.shard_sizes() == server.shard_sizes()
        for member in server.members():
            assert twin.shard_label(member) == server.shard_label(member)


class TestOpenedTableStaysHome:
    """A batch result is delivered through one shared index; pickling the
    delivered result ships ciphertext only, never the keys receivers
    opened."""

    def test_pickled_result_round_trips_without_the_table(self):
        server = ShardedOneTreeServer(shards=4, degree=4)
        regs = {f"m{i}": server.join(f"m{i}", 0.0) for i in range(24)}
        result = server.rekey(now=0.0)
        dek = server.group_key()
        index = result.index()
        members = [Member(m, reg.individual_key) for m, reg in regs.items()]
        for member in members:
            member.absorb(result.encrypted_keys, index=index)
        assert all(m.holds(dek.key_id, dek.version) for m in members)
        assert len(index.opened) >= len(members)

        blob = pickle.dumps(result)
        assert all(payload.secret not in blob for payload in index.opened.values())
        assert all(secret not in blob for secret in index.opened_with.values())
        shipped = pickle.loads(blob)
        assert shipped.encrypted_keys == result.encrypted_keys
        assert shipped.index().opened == shipped.index().opened_with == {}
        rebuilt = shipped.index()
        assert (rebuilt.heads, rebuilt.chain) == (index.heads, index.chain)
        assert shipped.index().size == index.size
        # The far side opens everything itself and reaches the same keys.
        late = Member("m0", regs["m0"].individual_key)
        late.absorb(shipped.encrypted_keys, index=shipped.index())
        assert late.held_versions() == members[0].held_versions()
