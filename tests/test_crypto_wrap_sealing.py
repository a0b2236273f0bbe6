"""One wrap path: a payload row seals on the first read of its ciphertext.

Every rekeyer appends through :meth:`WrapBatch.add`, which keeps the
row's two secrets and seals on first read.  Two consequences are pinned
here: a payload that leaves the process by pickling is sealed first and
carries ciphertext only, and the cost-only paths, which never read a
ciphertext, seal nothing at all.
"""

import pickle
from unittest import mock

import pytest

import repro.crypto.wrap as wrap_module
from repro.cli import SCHEMES
from repro.experiments.topology import topology_gain
from repro.experiments.validation import validate_batch_cost
from repro.members.population import LossPopulation
from repro.server import build_server
from repro.sim.simulation import GroupRekeyingSimulation, SimulationConfig
from repro.testing import default_join_attributes


@pytest.fixture
def seals():
    """Count the calls of the one seal core, ``repro.crypto.wrap._seal``."""
    with mock.patch.object(wrap_module, "_seal", wraps=wrap_module._seal) as seal:
        yield seal


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
    secrets = set()
    for pair in batch._secrets:
        secrets.update((pair[: wrap_module.KEY_SIZE], pair[wrap_module.KEY_SIZE :]))
    result.index()  # the cached index pickles with the result
    blob = pickle.dumps(result)
    assert not [secret for secret in secrets if secret in blob]
    shipped = pickle.loads(blob)
    assert shipped == result
    assert shipped.encrypted_keys.ciphertexts() == batch.ciphertexts()
    assert shipped.index().batch is shipped.encrypted_keys


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


def test_the_topology_experiment_seals_nothing(seals):
    results = topology_gain(receiver_count=64, departure_count=8, seed=5)
    assert all(result.total_link_cost > 0 for result in results.values())
    assert seals.call_count == 0


def test_the_counter_sees_a_seal(seals):
    """The patch is live: reading one row's ciphertext is one seal."""
    batch = fresh_batch("one").encrypted_keys
    batch.ciphertext(0)
    batch[1]
    assert seals.call_count == 2
