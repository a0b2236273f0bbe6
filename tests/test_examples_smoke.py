"""Smoke-run every script in ``examples/``.

Examples are the first code a new user executes; a broken one is a broken
front door.  Each script runs in a subprocess with ``REPRO_EXAMPLE_FAST=1``
(the documented seconds-scale switch) and must exit 0 with non-trivial
output and a clean stderr.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_directory_is_populated():
    """The exact set, so adding or deleting an example is a test edit."""
    assert [script.stem for script in EXAMPLES] == [
        "adaptive_speriod",
        "loss_aware_rekeying",
        "model_vs_simulation",
        "quickstart",
        "trace_replay_and_restart",
        "two_partition_pay_per_view",
    ]


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs_clean(script, tmp_path):
    env = dict(os.environ)
    env["REPRO_EXAMPLE_FAST"] = "1"
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,  # examples must not depend on the repo cwd
        timeout=300,
    )
    assert completed.returncode == 0, (
        f"{script.name} exited {completed.returncode}\n"
        f"stdout:\n{completed.stdout}\nstderr:\n{completed.stderr}"
    )
    assert completed.stdout.strip(), f"{script.name} produced no output"
    assert not completed.stderr.strip(), (
        f"{script.name} wrote to stderr:\n{completed.stderr}"
    )
