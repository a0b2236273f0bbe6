"""End-to-end integration tests across the whole stack.

These exercise the exact pipeline a deployment would run: workload →
server batch → transport over a lossy channel → member key-state updates →
data-plane decryption, asserting both functional behaviour and the
security invariants the key trees exist to provide.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.crypto.cipher import AuthenticationError, encrypt
from repro.members.durations import TwoClassDuration
from repro.members.population import LossPopulation
from repro.server.losshomog import LossHomogenizedServer
from repro.server.onetree import OneTreeServer
from repro.server.twopartition import TwoPartitionServer
from repro.sim.simulation import GroupRekeyingSimulation, SimulationConfig
from repro.transport.fec import ProactiveFecProtocol
from repro.transport.multisend import MultiSendProtocol
from repro.transport.wka_bkr import WkaBkrProtocol


def config(**overrides):
    base = dict(
        arrival_rate=0.3,
        rekey_period=60.0,
        horizon=900.0,
        duration_model=TwoClassDuration(200.0, 2000.0, 0.6),
        loss_population=LossPopulation.two_point(),
        seed=11,
    )
    base.update(overrides)
    return SimulationConfig(**base)


SERVERS = [
    lambda: OneTreeServer(degree=4),
    lambda: TwoPartitionServer(mode="qt", s_period=180.0),
    lambda: TwoPartitionServer(mode="tt", s_period=180.0),
    lambda: TwoPartitionServer(mode="pt"),
    lambda: LossHomogenizedServer(class_rates=(0.2, 0.02)),
]

TRANSPORTS = [
    lambda: WkaBkrProtocol(keys_per_packet=8),
    lambda: MultiSendProtocol(keys_per_packet=8, replication=2),
    lambda: ProactiveFecProtocol(keys_per_packet=8, block_size=4),
]


@pytest.mark.slow
@pytest.mark.parametrize("make_server", SERVERS, ids=lambda f: f().name)
@pytest.mark.parametrize("make_transport", TRANSPORTS, ids=lambda f: f().name)
def test_every_scheme_with_every_transport(make_server, make_transport):
    sim = GroupRekeyingSimulation(
        make_server(), config(transport=make_transport())
    )
    metrics = sim.run()
    assert metrics.rekey_count == 15
    assert metrics.verification_checks == 15
    assert metrics.total_transport_keys >= metrics.total_cost


@pytest.mark.slow
def test_data_plane_end_to_end_after_simulation():
    """After the simulated session, present tracked members decrypt fresh
    traffic; the most recently departed member cannot."""
    server = TwoPartitionServer(mode="tt", s_period=180.0)
    sim = GroupRekeyingSimulation(server, config())
    sim.run()
    assert sim.members, "simulation should end with live members"
    assert sim.tracked, "simulation should end with tracked members"
    dek = server.group_key()
    blob = encrypt(dek.secret, b"final", b"stream payload")
    for member in sim.members.values():
        if member is None:  # untracked: holds no keys of its own
            continue
        assert member.decrypt_data(dek.key_id, b"final", blob) == b"stream payload"
    for departed in sim.departed:
        with pytest.raises((AuthenticationError, KeyError)):
            departed.decrypt_data(dek.key_id, b"final", blob)


@pytest.mark.slow
def test_two_partition_beats_baseline_on_short_heavy_workload():
    """The paper's core claim, measured end to end: with a short-duration-
    heavy audience the two-partition server sends fewer keys per period
    than the one-keytree server on the identical workload."""
    workload = dict(
        arrival_rate=3.0,
        rekey_period=60.0,
        horizon=4200.0,
        duration_model=TwoClassDuration(150.0, 6000.0, 0.9),
        seed=21,
    )
    results = {}
    for name, server in (
        ("one", OneTreeServer(degree=4)),
        ("qt", TwoPartitionServer(mode="qt", s_period=300.0)),
    ):
        sim = GroupRekeyingSimulation(
            server, SimulationConfig(verify=False, **workload)
        )
        results[name] = sim.run().mean_cost(skip=35)
    assert results["qt"] < results["one"]


@pytest.mark.slow
def test_loss_homogenized_beats_one_tree_on_wire_cost():
    """Section 4's claim, measured end to end over WKA-BKR."""
    workload = dict(
        arrival_rate=2.0,
        rekey_period=60.0,
        horizon=3000.0,
        duration_model=TwoClassDuration(400.0, 2000.0, 0.5),
        loss_population=LossPopulation.two_point(0.20, 0.02, 0.2),
        seed=31,
    )
    wire = {}
    for name, server in (
        ("one", OneTreeServer(degree=4)),
        ("homog", LossHomogenizedServer(class_rates=(0.2, 0.02))),
    ):
        sim = GroupRekeyingSimulation(
            server,
            SimulationConfig(
                transport=WkaBkrProtocol(keys_per_packet=16),
                verify=False,
                **workload,
            ),
        )
        metrics = sim.run()
        wire[name] = sum(r.transport_keys for r in metrics.records[20:])
    assert wire["homog"] < wire["one"]


def test_package_imports_and_rekeys_without_numpy():
    """The package is stdlib-only: with numpy unimportable (a ``None``
    entry in ``sys.modules`` makes ``import numpy`` raise), ``import
    repro`` works and a server runs a batch rekey members can open."""
    script = """
import sys
sys.modules["numpy"] = None
import repro
from repro import Member, OneTreeServer
server = OneTreeServer(degree=3)
registrations = [server.join(f"m{i}") for i in range(20)]
members = [Member(r.member_id, r.individual_key) for r in registrations]
batch = server.rekey(now=60.0)
for member in members:
    member.absorb(batch.encrypted_keys, index=batch.index())
dek = server.group_key()
assert batch.cost > 0
assert all(m.holds(dek.key_id, dek.version) for m in members)
print("ok")
"""
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "ok"
