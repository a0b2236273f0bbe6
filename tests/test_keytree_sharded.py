"""Hash placement: ``shard_of``, per-shard slices, private streams, dumps.

What used to be pinned on a separate sharded key tree is pinned here on
the partitioned server under :class:`~repro.server.placement.HashPlacement`:
which shard a member lands in, that a batch touches only the shards it
has members in, that every shard draws from its own stream, and that a
shard's dump restores into one that re-derives the same payloads.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.crypto.material import KeyGenerator
from repro.server.partitioned import TreePartition
from repro.server.placement import HashPlacement, shard_of
from repro.server.sharded import ShardedOneTreeServer


def make_server(shards=4, seed=7):
    return ShardedOneTreeServer(shards=shards, degree=4, keygen=KeyGenerator(seed=seed))


def admit(server, member_ids, now=0.0):
    for member_id in member_ids:
        server.join(member_id, at_time=now)
    return server.rekey(now=now)


def wire(keys):
    return [
        (
            ek.wrapping_id,
            ek.wrapping_version,
            ek.payload_id,
            ek.payload_version,
            ek.ciphertext,
        )
        for ek in keys
    ]


class TestPlacement:
    def test_shard_of_is_stable_and_in_range(self):
        for shards in (1, 2, 8, 16):
            for i in range(200):
                member = f"m{i}"
                shard = shard_of(member, shards)
                assert 0 <= shard < shards
                assert shard == shard_of(member, shards)

    def test_shard_of_is_roughly_balanced(self):
        shards = 8
        counts = [0] * shards
        population = 4000
        for i in range(population):
            counts[shard_of(f"member-{i}", shards)] += 1
        expected = population / shards
        for count in counts:
            assert abs(count - expected) < expected * 0.25

    def test_single_shard_routes_everything_to_zero(self):
        assert all(shard_of(f"m{i}", 1) == 0 for i in range(50))
        assert all(HashPlacement().place(f"m{i}", 0.0, 1) == 0 for i in range(50))

    def test_placement_is_independent_of_pythonhashseed(self):
        script = (
            "from repro.server.placement import shard_of;"
            "print([shard_of(f'm{i}', 16) for i in range(64)])"
        )
        src = str(Path(repro.__file__).parent.parent)
        outputs = {
            subprocess.run(
                [sys.executable, "-c", script],
                check=True,
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            ).stdout
            for seed in ("0", "1", "4242")
        }
        assert outputs == {str([shard_of(f"m{i}", 16) for i in range(64)]) + "\n"}

    def test_apply_batch_records_placement(self):
        server = make_server()
        admit(server, [f"m{i}" for i in range(32)])
        for i in range(32):
            member = f"m{i}"
            shard = shard_of(member, server.shards)
            assert member in server.partitions[shard]
            assert server.shard_label(member) == f"shard{shard}"
        assert server.size == 32
        assert sum(server.shard_sizes().values()) == 32

    def test_departure_updates_sizes_and_membership(self):
        server = make_server()
        admit(server, [f"m{i}" for i in range(16)])
        before = server.shard_sizes()
        victim = "m5"
        shard = shard_of(victim, server.shards)
        server.leave(victim, at_time=10.0)
        server.rekey(now=10.0)
        assert victim not in server
        assert server.shard_sizes()[shard] == before[shard] - 1
        with pytest.raises(KeyError):
            server.shard_label(victim)

    def test_populated_shards_excludes_empty(self):
        server = make_server(shards=8)
        admit(server, ["only-one"])
        sizes = server.shard_sizes()
        assert [s for s, size in sizes.items() if size] == [shard_of("only-one", 8)]
        # The empty shards get no DEK wrap when it leaves the next batch.
        admit(server, ["another"], now=10.0)
        server.leave("only-one", at_time=20.0)
        result = server.rekey(now=20.0)
        assert result.breakdown["group-key"] == 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ShardedOneTreeServer(shards=0)
        for removed in ("backend", "workers", "payload"):
            with pytest.raises(TypeError):
                ShardedOneTreeServer(shards=2, **{removed: 1})


class TestBatchOutcome:
    def test_touched_lists_only_affected_shards(self):
        server = make_server(shards=8, seed=3)
        admit(server, [f"m{i}" for i in range(24)])
        victim = "m0"
        server.leave(victim, at_time=10.0)
        result = server.rekey(now=10.0)
        assert list(result.breakdown) == [f"shard{shard_of(victim, 8)}", "group-key"]

    def test_fragments_come_back_in_shard_order(self):
        server = make_server(shards=8, seed=3)
        result = admit(server, [f"m{i}" for i in range(40)])
        labels = [label for label in result.breakdown if label != "group-key"]
        assert labels == sorted(labels, key=lambda label: int(label[5:]))
        assert list(result.breakdown)[-1] == "group-key"

    def test_fragment_roots_match_root_key_query(self):
        """The stitch wraps the DEK under each shard's *current* root."""
        server = make_server(shards=4, seed=3)
        admit(server, [f"m{i}" for i in range(20)])
        server.leave("m3", at_time=10.0)
        result = server.rekey(now=10.0)
        dek = server.group_key()
        wrapped_under = [
            (ek.wrapping_id, ek.wrapping_version)
            for ek in result.encrypted_keys
            if ek.payload_id == dek.key_id
        ]
        roots = [part.tree.root.key for part in server.partitions if part.size]
        assert wrapped_under == [(root.key_id, root.version) for root in roots]


class TestPrivateStreams:
    def test_a_shard_draws_only_from_its_own_stream(self):
        """Churn confined to one shard moves that shard's stream and the
        DEK stream, and no other shard's."""
        server = make_server(shards=4, seed=11)
        admit(server, [f"m{i}" for i in range(30)])
        streams = [part.tree.keygen for part in server.partitions]
        assert len({id(stream) for stream in streams} | {id(server.keygen)}) == 5
        before = [stream.state()["counter"] for stream in streams]
        victim = "m4"
        server.leave(victim, at_time=10.0)
        server.rekey(now=10.0)
        after = [stream.state()["counter"] for stream in streams]
        moved = [shard for shard in range(4) if after[shard] != before[shard]]
        assert moved == [shard_of(victim, 4)]

    def test_shard_keys_do_not_depend_on_other_shards_churn(self):
        """Same members in shard 0, different traffic elsewhere: shard 0's
        slice of the payload is byte-identical."""
        everyone = [f"m{i}" for i in range(40)]
        only_zero = [m for m in everyone if shard_of(m, 4) == 0]
        full, sparse = make_server(seed=5), make_server(seed=5)
        # Individual keys come off the shared stream, so admit in one order.
        full_result = admit(full, only_zero + [m for m in everyone if m not in only_zero])
        sparse_result = admit(sparse, only_zero)
        count = full_result.breakdown["shard0"]
        assert count == sparse_result.breakdown["shard0"]
        assert wire(full_result.encrypted_keys[:count]) == wire(
            sparse_result.encrypted_keys[:count]
        )


class TestDumpLoad:
    def test_round_trip_re_derives_identical_payloads(self):
        live = make_server(shards=4, seed=21)
        admit(live, [f"m{i}" for i in range(20)])
        live.leave("m3", at_time=10.0)
        live.leave("m8", at_time=10.0)
        live.rekey(now=10.0)

        shared = KeyGenerator(seed=99)  # private streams come from the dump
        twins = [TreePartition.load(part.dump(live.keygen), shared) for part in live.partitions]
        assert all(isinstance(twin, TreePartition) for twin in twins)
        assert shared.state()["counter"] == 0
        for part, twin in zip(live.partitions, twins):
            assert twin.label == part.label
            assert sorted(twin.members()) == sorted(part.members())
            assert twin.tree.root.key == part.tree.root.key
            assert twin.tree.keygen.state() == part.tree.keygen.state()

        late = KeyGenerator(seed=22).generate("member:late")
        for part, twin in zip(live.partitions, twins):
            leaving = [m for m in ("m1",) if m in part]
            entering = [("late", late)] if part.label == "shard0" else []
            if not leaving and not entering:
                continue
            ours = part.apply(entering, leaving)
            theirs = twin.apply(entering, leaving)
            assert wire(theirs.encrypted_keys) == wire(ours.encrypted_keys)
            assert theirs.epoch == ours.epoch

    def test_member_path_keys_end_at_shard_root(self):
        server = make_server(shards=4, seed=5)
        admit(server, [f"m{i}" for i in range(16)])
        for member in ("m0", "m7", "m15"):
            part = server.partitions[shard_of(member, 4)]
            path = part.path_keys(member)
            assert path
            assert path[-1] == part.tree.root.key
            assert server._current_keys_of(member) == path + [server.group_key()]
