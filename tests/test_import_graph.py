"""The product path holds one key-tree kernel.

Every server, the simulator and the model-vs-simulation experiments build
:mod:`repro.keytree.flat`.  The object-per-node tree it is tested against
lives in :mod:`repro.testing` as the reference, and nothing a product run
touches may load it — or any other part of :mod:`repro.testing`, or the
key-tree modules kept outside the product (:mod:`repro.keytree.node` and
:mod:`repro.keytree.probabilistic`).  The check runs in a fresh
interpreter, so no other test's imports count.
"""

import os
import subprocess
import sys
from pathlib import Path

SCRIPT = """
import sys
import repro
import repro.experiments.validation
import repro.server
import repro.sim
import repro.transport
from repro import (
    GroupRekeyingSimulation,
    OneTreeServer,
    SimulationConfig,
    WkaBkrProtocol,
)
from repro.experiments.validation import validate_batch_cost

config = SimulationConfig(
    arrival_rate=0.5, rekey_period=60.0, horizon=600.0, seed=3,
    transport=WkaBkrProtocol(),
)
metrics = GroupRekeyingSimulation(OneTreeServer(degree=4), config).run()
assert metrics.records, "the simulation ran no epoch"
assert validate_batch_cost(group_size=64, batches=1).measured > 0
reference = ("repro.keytree.tree", "repro.keytree.lkh", "repro.keytree.serialize")
outside = ("repro.keytree.node", "repro.keytree.probabilistic")
loaded = sorted(
    name for name in sys.modules
    if name == "repro.testing" or name.startswith("repro.testing.")
    or name in reference or name in outside
)
print(" ".join(loaded) or "clean")
"""


def test_product_path_loads_no_reference_kernel():
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["clean"], (
        f"the product path loaded modules outside it: {done.stdout.strip()}"
    )
