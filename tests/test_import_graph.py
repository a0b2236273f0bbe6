"""The product path holds one key-tree kernel, and the product is what a
pin, a workload or a gate reads.

Every server, the simulator and the model-vs-simulation experiments build
:mod:`repro.keytree.flat`.  The object-per-node tree it is tested against
lives in :mod:`repro.testing` as the reference, and nothing a product run
touches may load it — or any other part of :mod:`repro.testing`, or the
key-tree modules kept outside the product (:mod:`repro.keytree.node` and
:mod:`repro.keytree.probabilistic`).  The check runs in a fresh
interpreter, so no other test's imports count.

The reachability census reads the imports statically, name by name: every
module under ``src/repro`` outside :mod:`repro.testing` must be used by
one of the roots — the figure producers and the pinned tables
(``repro.experiments``, ``tests/test_fidelity.py``), the benchmark's
workloads (``bench/workloads.py``), the CLI (every command of which the
README documents), the chaos sweep and the obs stack.  A package's
``__init__`` is followed only for the names a user takes from it, so a
re-export alone keeps nothing alive.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

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


#: Modules no root uses, each kept by the open ROADMAP item named.  The list
#: may only shrink: an entry that a root reaches again, or whose module is
#: gone, fails the census until it is deleted here.
UNREACHED = {
    # Section 3.4's estimator: only examples/adaptive_speriod.py and its
    # tests drive it.
    "repro.server.adaptive": "items 3(d), 5(b)",
}

ROOTS = [
    SRC / "repro" / "experiments" / "__init__.py",
    REPO / "tests" / "test_fidelity.py",
    *sorted((REPO / "bench").glob("*.py")),
    SRC / "repro" / "__main__.py",
    SRC / "repro" / "cli.py",
    SRC / "repro" / "faults" / "chaos.py",
    *sorted((SRC / "repro" / "obs").glob("*.py")),
]


def _module_name(path):
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {_module_name(path): path for path in (SRC / "repro").rglob("*.py")}


class _Module:
    """One parsed module: what each local name is imported from, and the
    top-level definitions of a package ``__init__``."""

    def __init__(self, path):
        self.path = path
        self.is_package = path.name == "__init__.py"
        name = _module_name(path) if path.is_relative_to(SRC) else ""
        self.tree = ast.parse(path.read_text())
        self.imports = []  # (module, attribute or None, local name)
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.imports.append((alias.name, None, alias.asname))
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    package = name.split(".")
                    if not self.is_package:
                        package = package[:-1]
                    package = package[: len(package) - node.level + 1]
                    base = ".".join(package + ([base] if base else []))
                for alias in node.names:
                    self.imports.append((base, alias.name, alias.asname or alias.name))
        self.definitions = {}
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                self.definitions[node.name] = node
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.definitions[target.id] = node


def _reached_from(roots):
    parsed = {}

    def module(path):
        if path not in parsed:
            parsed[path] = _Module(path)
        return parsed[path]

    reached = {_module_name(root) for root in roots if root.is_relative_to(SRC)}
    whole, names = set(), set()
    work = [("whole", root) for root in roots]

    def use(target, attribute):
        # ``from target import attribute``, or ``import target``
        if attribute is not None and f"{target}.{attribute}" in MODULES:
            target, attribute = f"{target}.{attribute}", None
        if target not in MODULES:
            return
        parts = target.split(".")
        reached.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
        if attribute is None or not module(MODULES[target]).is_package:
            work.append(("whole", MODULES[target]))
        else:
            work.append(("name", (target, attribute)))

    while work:
        kind, item = work.pop()
        if kind == "whole":
            if item in whole:
                continue
            whole.add(item)
            for target, attribute, __ in module(item).imports:
                use(target, attribute)
            continue
        if item in names:
            continue
        names.add(item)
        target, attribute = item
        package = module(MODULES[target])
        local = {as_name: (m, a) for m, a, as_name in package.imports}
        if attribute in local:
            use(*local[attribute])
        elif attribute in package.definitions:
            for node in ast.walk(package.definitions[attribute]):
                if isinstance(node, ast.Name) and node.id in local:
                    use(*local[node.id])
    return reached


def test_every_cli_command_is_documented():
    """The CLI is a root as the README documents it: command for command."""
    commands = re.findall(
        r'add_parser\(\s*"([a-z]+)"', (SRC / "repro" / "cli.py").read_text()
    )
    readme = (REPO / "README.md").read_text()
    assert commands
    assert [c for c in commands if f"python -m repro {c}" not in readme] == []


def test_every_product_module_is_reached_by_a_root():
    product = {
        name for name in MODULES
        if name != "repro.testing" and not name.startswith("repro.testing.")
    }
    unreached = product - _reached_from(ROOTS)
    assert unreached - set(UNREACHED) == set(), "no root uses these"
    assert set(UNREACHED) - unreached == set(), "reached again or gone"
