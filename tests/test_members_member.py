"""Unit tests for the receiver-side key state machine."""

import copy
import pickle

import pytest

from repro.crypto.cipher import AuthenticationError, encrypt
from repro.crypto.material import KeyGenerator, KeyMaterial
from repro.crypto.wrap import EncryptedKey, RekeyMessage, WrapBatch, WrapIndex, wrap_key
from repro.members.member import Member
from repro.obs import metrics as obs_metrics
from repro.server.onetree import OneTreeServer
from repro.testing.oracle import useful_subset


@pytest.fixture
def gen():
    return KeyGenerator(21)


@pytest.fixture
def member(gen):
    return Member("alice", gen.generate("member:alice"))


class TestKeyState:
    def test_starts_with_individual_key_only(self, member):
        assert member.key_count() == 1
        assert member.holds("member:alice")
        assert member.holds("member:alice", 0)

    def test_key_lookup_errors(self, member):
        with pytest.raises(KeyError):
            member.key("unknown")

    def test_install_and_held_versions(self, member, gen):
        member.install(gen.generate("aux", version=2))
        assert member.held_versions() == {"member:alice": 0, "aux": 2}

    def test_install_refuses_downgrade(self, member, gen):
        newer = gen.generate("aux", version=3)
        older = gen.generate("aux", version=1)
        member.install(newer)
        member.install(older)
        assert member.key("aux").version == 3


class TestAbsorb:
    def test_absorbs_reachable_chain_regardless_of_order(self, member, gen):
        """parent wrapped under aux, aux wrapped under the individual key —
        presented parent-first, requiring the fixed-point pass."""
        aux = gen.generate("aux", version=1)
        parent = gen.generate("parent", version=1)
        chain = [
            wrap_key(aux, parent),
            wrap_key(member.key("member:alice"), aux),
        ]
        learned = member.absorb(chain)
        assert {k.key_id for k in learned} == {"aux", "parent"}
        assert member.holds("parent", 1)

    def test_ignores_wraps_for_missing_keys(self, member, gen):
        other = gen.generate("other")
        payload = gen.generate("secret")
        assert member.absorb([wrap_key(other, payload)]) == []
        assert not member.holds("secret")

    def test_ignores_wraps_under_stale_version(self, member, gen):
        aux_v0 = gen.generate("aux", version=0)
        aux_v2 = gen.generate("aux", version=2)
        member.install(aux_v0)
        payload = gen.generate("secret", version=1)
        assert member.absorb([wrap_key(aux_v2, payload)]) == []

    def test_skips_already_known_payload_versions(self, member, gen):
        aux = gen.generate("aux", version=5)
        member.install(aux)
        stale_payload = gen.generate("aux", version=4)
        wrap = wrap_key(member.key("member:alice"), stale_payload)
        assert member.absorb([wrap]) == []
        assert member.key("aux").version == 5

    def test_useful_subset_does_not_mutate(self, member, gen):
        aux = gen.generate("aux", version=1)
        wraps = [wrap_key(member.key("member:alice"), aux)]
        useful = useful_subset(member, wraps)
        assert len(useful) == 1
        assert not member.holds("aux")

    def test_useful_subset_follows_chains(self, member, gen):
        aux = gen.generate("aux", version=1)
        parent = gen.generate("parent", version=1)
        wraps = [
            wrap_key(aux, parent),
            wrap_key(member.key("member:alice"), aux),
        ]
        assert len(useful_subset(member, wraps)) == 2


class TestDataPlane:
    def test_decrypts_traffic_with_group_key(self, member, gen):
        dek = gen.generate("group/dek", version=7)
        member.install(dek)
        blob = encrypt(dek.secret, b"n", b"payload")
        assert member.decrypt_data("group/dek", b"n", blob) == b"payload"

    def test_stale_group_key_fails_authentication(self, member, gen):
        old = gen.generate("group/dek", version=1)
        new = gen.rekey(old)
        member.install(old)
        blob = encrypt(new.secret, b"n", b"payload")
        with pytest.raises(AuthenticationError):
            member.decrypt_data("group/dek", b"n", blob)

    def test_missing_group_key_raises_key_error(self, member):
        with pytest.raises(KeyError):
            member.decrypt_data("group/dek", b"n", b"\x00" * 32)


class TestOpenedWrapTable:
    """Receivers sharing one WrapIndex run each wrap's decrypt once."""

    @pytest.fixture
    def group(self, gen):
        """Four members under one subtree key, a payload refreshing it and
        the root: ``(members, subtree key, wraps)``."""
        subtree = gen.generate("n1", version=1)
        members = [
            Member(name, gen.generate(f"member:{name}"))
            for name in ("alice", "bob", "carol", "dave")
        ]
        for m in members:
            m.install(subtree)
        fresh = gen.rekey(subtree)
        root = gen.generate("root", version=4)
        return members, subtree, [wrap_key(fresh, root), wrap_key(subtree, fresh)]

    @pytest.fixture
    def unwraps(self, monkeypatch):
        """Successful and failed real row unwraps made by absorb."""
        calls = {"ok": 0, "failed": 0}
        real = WrapBatch.unwrap

        def counting(batch, row, wrapping):
            try:
                payload = real(batch, row, wrapping)
            except (AuthenticationError, ValueError):
                calls["failed"] += 1
                raise
            calls["ok"] += 1
            return payload

        monkeypatch.setattr(WrapBatch, "unwrap", counting)
        return calls

    def test_one_real_unwrap_per_distinct_wrap(self, group, unwraps):
        members, _, wraps = group
        index = WrapIndex(wraps)
        learned = [m.absorb(wraps, index=index) for m in members]
        assert unwraps == {"ok": 2, "failed": 0}
        assert sorted(index.opened) == sorted(index.opened_with) == [0, 1]
        assert all(
            [k.handle for k in got] == [("n1", 2), ("root", 4)] for got in learned
        )
        # Duplicate delivery of the same payload: nothing new, no cipher.
        assert [m.absorb(wraps, index=index) for m in members] == [[]] * 4
        assert unwraps == {"ok": 2, "failed": 0}

    def test_private_indexes_open_everything_themselves(self, group, unwraps):
        members, _, wraps = group
        for m in members:
            assert len(m.absorb(wraps)) == 2
        assert unwraps == {"ok": 8, "failed": 0}

    def test_counters_split_real_and_shared_unwraps(self, group):
        members, _, wraps = group
        index = WrapIndex(wraps)
        with obs_metrics.collecting() as registry:
            for m in members:
                m.absorb(wraps, index=index)
        assert registry.counter_total("member.keys_learned") == 8
        assert registry.counter_total("crypto.unwraps") == 2
        assert registry.counter_total("member.unwraps_shared") == 6

    def test_table_interns_keys_without_coupling_members(self, group, gen):
        members, _, wraps = group
        index = WrapIndex(wraps)
        for m in members:
            m.absorb(wraps, index=index)
        alice, bob = members[:2]
        assert all(m.key("root") is alice.key("root") for m in members)
        assert all(m.key("n1") is alice.key("n1") for m in members)
        alice.install(gen.generate("n1", version=9))
        assert bob.holds("root", 4) and bob.key("n1").version == 2
        assert index.opened[0].handle == ("root", 4)

    def test_equal_secret_in_another_object_is_served(self, group, unwraps, gen):
        """Siblings that learned a key from different wraps hold equal
        copies, not one object: the byte comparison covers them."""
        members, subtree, wraps = group
        index = WrapIndex(wraps)
        members[0].absorb(wraps, index=index)
        twin = Member("erin", gen.generate("member:erin"))
        twin.install(KeyMaterial(subtree.key_id, subtree.version, subtree.secret))
        assert twin.key("n1") is not subtree
        assert len(twin.absorb(wraps, index=index)) == 2
        assert unwraps == {"ok": 2, "failed": 0}

    def test_right_handle_wrong_secret_reaches_the_cipher(self, group, unwraps, gen):
        members, subtree, wraps = group
        index = WrapIndex(wraps)
        for m in members:
            m.absorb(wraps, index=index)
        impostor = Member("mallory", gen.generate("member:mallory"))
        impostor.install(gen.generate(subtree.key_id, version=subtree.version))
        assert impostor.key("n1").secret != subtree.secret
        before = dict(index.opened), dict(index.opened_with)
        assert impostor.absorb(wraps, index=index) == []
        assert unwraps == {"ok": 2, "failed": 1}
        assert not impostor.holds("root")
        assert (index.opened, index.opened_with) == before

    def test_tampered_wrap_is_never_stored(self, group, unwraps):
        members, _, wraps = group
        good = wraps[1]
        flipped = bytes([good.ciphertext[0] ^ 1]) + good.ciphertext[1:]
        wraps[1] = EncryptedKey(
            good.wrapping_id,
            good.wrapping_version,
            good.payload_id,
            good.payload_version,
            flipped,
        )
        index = WrapIndex(wraps)
        assert [m.absorb(wraps, index=index) for m in members] == [[]] * 4
        assert unwraps == {"ok": 0, "failed": 4}
        assert index.opened == index.opened_with == {}

    def test_stale_version_holder_never_reads_the_table(self, group, gen):
        members, subtree, wraps = group

        class Unreadable(dict):
            def get(self, *args):
                raise AssertionError("version check must come first")

        index = WrapIndex(wraps)
        for m in members:
            m.absorb(wraps, index=index)
        stale = Member("old", gen.generate("member:old"))
        stale.install(gen.generate(subtree.key_id, version=subtree.version - 1))
        index.opened = Unreadable(index.opened)
        assert stale.absorb(wraps, index=index) == []

    def test_evicted_member_learns_nothing_from_a_full_table(self):
        server = OneTreeServer(degree=2)
        members = {}
        for name in "abcdefgh":
            members[name] = Member(name, server.join(name).individual_key)
        result = server.rekey()
        for m in members.values():
            m.absorb(result.encrypted_keys, index=result.index())
        server.leave("c")
        evicted = members.pop("c")
        result = server.rekey()
        index = result.index()
        for m in members.values():
            assert m.absorb(result.encrypted_keys, index=index)
        assert len(index.opened) == len(result.encrypted_keys)
        assert evicted.absorb(result.encrypted_keys, index=index) == []
        dek = server.group_key()
        assert all(m.holds(dek.key_id, dek.version) for m in members.values())
        assert not evicted.holds(dek.key_id, dek.version)

    def test_table_never_leaves_the_process(self, group):
        members, _, wraps = group
        message = RekeyMessage(group="g", epoch=1, encrypted_keys=list(wraps))
        index = message.index()
        for m in members:
            m.absorb(message.encrypted_keys, index=index)
        assert len(index.opened) == 2
        blob = pickle.dumps(message)
        for secret in [k.secret for k in index.opened.values()] + list(
            index.opened_with.values()
        ):
            assert secret not in blob
        restored = pickle.loads(blob).index()
        assert restored.opened == restored.opened_with == {}
        assert (restored.heads, restored.chain) == (index.heads, index.chain)
        assert restored.size == index.size
        assert copy.deepcopy(index).opened == {}

    def test_rebuilt_index_starts_empty(self, group, gen):
        members, _, wraps = group
        message = RekeyMessage(group="g", epoch=1, encrypted_keys=list(wraps))
        members[0].absorb(message.encrypted_keys, index=message.index())
        assert message.index().opened
        message.encrypted_keys.append(
            wrap_key(gen.generate("x"), gen.generate("y"))
        )
        assert message.index().size == 3
        assert message.index().opened == message.index().opened_with == {}
