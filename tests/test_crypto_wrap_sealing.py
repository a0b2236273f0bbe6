"""One wrap path: a payload row seals on the first read of its ciphertext.

Every rekeyer appends through :meth:`WrapBatch.add`, which keeps the
row's two secrets and seals on first read.  Two consequences are pinned
here: a payload that leaves the process by pickling is sealed first and
carries ciphertext only, and the cost-only paths, which never read a
ciphertext, seal nothing at all.

A row read alone seals through ``_seal``; the whole column
(:meth:`WrapBatch.ciphertexts`: the wire codec, pickling) seals a chunk
of rows at a time through ``encrypt_column``.  The two paths are pinned
against each other and against :func:`wrap_key` here, byte for byte, and
reject the same malformed rows with the same error.
"""

import hashlib
import pickle
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.crypto.wrap as wrap_module
from repro.cli import SCHEMES
from repro.crypto.cipher import _subkeys
from repro.crypto.material import KeyGenerator, KeyMaterial
from repro.crypto.wrap import RekeyMessage, SealError, WrapBatch, wrap_key
from repro.experiments.validation import validate_batch_cost
from repro.keytree.flat import FlatKeyTree, FlatRekeyer
from repro.members.population import LossPopulation
from repro.server import build_server
from repro.sim.simulation import GroupRekeyingSimulation, SimulationConfig
from repro.testing import default_join_attributes
from repro.transport.codec import encode_rekey_message

CHUNK = wrap_module._CHUNK


class SealCounter:
    """Calls of both seal cores: the row path's ``_seal`` (one a row) and
    the column path's ``encrypt_column`` (one a chunk)."""

    def __init__(self, row: mock.Mock, column: mock.Mock) -> None:
        self.row = row
        self.column = column

    @property
    def call_count(self) -> int:
        return self.row.call_count + self.column.call_count


@pytest.fixture
def seals():
    """Count the calls of the two seal cores ``repro.crypto.wrap`` uses."""
    with mock.patch.object(
        wrap_module, "_seal", wraps=wrap_module._seal
    ) as row, mock.patch.object(
        wrap_module, "encrypt_column", wraps=wrap_module.encrypt_column
    ) as column:
        yield SealCounter(row, column)


def fresh_batch(scheme):
    """A server of ``scheme`` after a churned second batch, and that
    batch's result, read by nothing yet."""
    server = build_server(scheme)
    for i in range(40):
        attributes = default_join_attributes(f"m{i}")
        server.join(
            f"m{i}",
            at_time=0.0,
            **{k: v for k, v in attributes.items() if k in server.join_attributes},
        )
    server.rekey(now=0.0)
    for i in range(0, 40, 8):
        server.leave(f"m{i}")
    for i in range(40, 45):
        attributes = default_join_attributes(f"m{i}")
        server.join(
            f"m{i}",
            at_time=60.0,
            **{k: v for k, v in attributes.items() if k in server.join_attributes},
        )
    return server.rekey(now=60.0)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_fresh_batch_pickles_to_ciphertext_only(scheme):
    result = fresh_batch(scheme)
    batch = result.encrypted_keys
    assert batch and not any(batch.is_sealed(row) for row in range(len(batch)))
    secrets = {*batch._wrapping_secrets, *batch._payload_secrets}
    assert None not in secrets
    result.index()  # the cached index pickles with the result
    blob = pickle.dumps(result)
    assert not [secret for secret in secrets if secret in blob]
    shipped = pickle.loads(blob)
    assert shipped == result
    assert shipped.encrypted_keys.ciphertexts() == batch.ciphertexts()
    assert shipped.index().batch is shipped.encrypted_keys


def churned_tree():
    """A flat tree after a mixed batch, and that batch's payload."""
    tree = FlatKeyTree(degree=3, keygen=KeyGenerator(4), name="t")
    rekeyer = FlatRekeyer(tree)
    rekeyer.rekey_batch(joins=[(f"m{i}", None) for i in range(30)])
    joiner = KeyMaterial("member:j", 0, hashlib.sha256(b"j").digest())
    message = rekeyer.rekey_batch(joins=[("j", joiner)], departures=["m3", "m17"])
    return tree, rekeyer, joiner, message.encrypted_keys


def test_a_fresh_payload_shares_the_tree_secrets_and_seals_late_as_added():
    """A row keeps the tree's own secret objects, not copies, and a leaf
    keeps its member's.  A refresh replaces a slot's object and never
    writes into it, so a payload sealed two rekeys later is byte for byte
    the payload sealed at once."""
    tree, rekeyer, joiner, batch = churned_tree()
    secrets, index = tree._secrets, tree._index
    assert secrets[tree._member_leaf["j"]] is joiner.secret
    assert len(batch) and not any(map(batch.is_sealed, range(len(batch))))
    for row, (wrapping, payload) in enumerate(
        zip(batch._wrapping_secrets, batch._payload_secrets)
    ):
        assert wrapping is secrets[index[batch.wrapping_ids[row]]]
        assert payload is secrets[index[batch.payload_ids[row]]]
    rekeyer.rekey_batch(departures=["j", "m4"], force_root=True)
    rekeyer.rekey_batch(joins=[("k", None)], force_root=True)
    assert tree.root.key.secret is not batch._payload_secrets[-1]
    assert batch.ciphertexts() == churned_tree()[3].ciphertexts()


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_cost_only_simulation_seals_nothing(scheme, seals):
    config = SimulationConfig(
        arrival_rate=0.5,
        rekey_period=60.0,
        horizon=600.0,
        loss_population=LossPopulation.two_point(),
        cost_only=True,
        verify=False,
        seed=3,
    )
    metrics = GroupRekeyingSimulation(build_server(scheme, s_period=120.0), config).run()
    assert metrics.total_cost > 0
    assert seals.call_count == 0


def test_the_batch_cost_validation_seals_nothing(seals):
    assert validate_batch_cost(group_size=64, batches=1).measured > 0
    assert seals.call_count == 0


def test_the_counter_sees_a_seal(seals):
    """The patch is live: reading one row's ciphertext is one seal."""
    batch = fresh_batch("one").encrypted_keys
    batch.ciphertext(0)
    batch[1]
    assert seals.call_count == 2


def test_the_counter_sees_a_column_seal(seals):
    """Encoding a fresh payload seals it a column at a time."""
    result = fresh_batch("one")
    encode_rekey_message(
        RekeyMessage("g", result.epoch, encrypted_keys=result.encrypted_keys)
    )
    assert seals.row.call_count == 0
    assert seals.column.call_count == -(-len(result.encrypted_keys) // CHUNK)


def key(name: str, version: int, seed: int) -> KeyMaterial:
    secret = hashlib.sha256(f"{seed}:{name}#{version}".encode()).digest()
    return KeyMaterial(name, version, secret)


def pairs(count: int, seed: int) -> list:
    """``count`` distinct (wrapping, payload) key pairs."""
    return [
        (key(f"n{row}", row % 5, seed), key(f"n{row // 4}", row % 3 + 1, seed))
        for row in range(count)
    ]


KINDS = ("added", "appended", "sealed")


def build(rows: list, kinds: list, offset: int) -> WrapBatch:
    """A batch over ``rows``, each ``added`` (secrets kept), ``appended``
    (a :func:`wrap_key` record) or ``sealed`` (added, then read), in the
    cycle ``kinds``; sliced out of a longer batch when ``offset`` > 0."""
    batch = WrapBatch()
    padding = pairs(offset, seed=-1)
    for row, (wrapping, payload) in enumerate(padding + rows + padding):
        kind = kinds[row % len(kinds)]
        if kind == "appended":
            batch.append(wrap_key(wrapping, payload))
        else:
            secrets = (wrapping.secret, payload.secret)
            batch.add(*wrapping.handle, *payload.handle, *secrets)
            if kind == "sealed":
                batch.ciphertext(row)
    return batch[offset : offset + len(rows)] if offset else batch


class TestColumnSeal:
    """``ciphertexts()`` against the row path it replaces."""

    @settings(max_examples=30, deadline=None)
    @given(
        count=st.sampled_from([0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5]),
        kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=6),
        offset=st.sampled_from([0, 1, 7]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_equals_the_row_path_and_wrap_key(self, count, kinds, offset, seed):
        rows = pairs(count, seed)
        column, per_row = build(rows, kinds, offset), build(rows, kinds, offset)
        secrets = {k.secret for pair in rows for k in pair}
        sealed = column.ciphertexts()
        assert sealed == [per_row.ciphertext(row) for row in range(count)]
        assert sealed == [wrap_key(*pair).ciphertext for pair in rows]
        assert column._wrapping_secrets == column._payload_secrets == [None] * count
        blob = pickle.dumps(column)
        assert blob == pickle.dumps(per_row)
        assert not [secret for secret in secrets if secret in blob]

    def test_an_encode_leaves_the_subkey_cache_alone(self):
        batch = build(pairs(3 * CHUNK, seed=5), ["added"], 0)
        before = _subkeys.cache_info()
        encode_rekey_message(RekeyMessage("g", 1, encrypted_keys=batch))
        assert batch._wrapping_secrets == batch._payload_secrets == [None] * len(batch)
        assert _subkeys.cache_info() == before

    def test_the_transient_peak_is_one_chunk(self):
        """Sealing 8,192 rows holds one chunk's lists at a time: about
        0.8 KB a chunk row; unchunked, the same pass peaks near 6 MB."""
        batch = build(pairs(8192, seed=9), ["added"], 0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            sealed = batch.ciphertexts()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = sum(map(sys.getsizeof, sealed))
        assert peak - before - output <= CHUNK * 1536


BAD_PAIRS = {
    "bytearray-wrapping-secret": (bytearray(32), bytes(32)),
    "31-byte-payload-secret": (bytes(32), bytes(31)),
    "16-byte-wrapping-secret": (bytes(16), bytes(32)),
}


@pytest.mark.parametrize("secrets", BAD_PAIRS.values(), ids=BAD_PAIRS)
class TestMalformedRows:
    """A malformed row is accepted by ``add`` and refused by its seal, on
    both paths, with one error naming the row."""

    def batch(self, secrets) -> WrapBatch:
        batch = build(pairs(CHUNK + 3, seed=2), ["added"], 0)
        batch.add("bad", 4, "n0", 9, *secrets)
        return batch

    def test_the_row_path(self, secrets):
        batch = self.batch(secrets)
        with pytest.raises(SealError, match=rf"row {CHUNK + 3} \(bad#4->n0#9\)"):
            batch.ciphertext(CHUNK + 3)
        assert not batch.is_sealed(CHUNK + 3)

    def test_the_column_path(self, secrets):
        batch = self.batch(secrets)
        with pytest.raises(SealError, match=rf"row {CHUNK + 3} \(bad#4->n0#9\)"):
            batch.ciphertexts()
        assert not batch.is_sealed(CHUNK + 3)
        with pytest.raises(SealError):
            encode_rekey_message(RekeyMessage("g", 1, encrypted_keys=batch))
