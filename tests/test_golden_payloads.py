"""Golden-payload regression anchor for both tree kernels.

``tests/golden/flat_kernel_payloads.json`` pins the exact wire bytes
(wrap order, versions, ciphertexts) of a handful of deterministic churn
traces, recorded from the object kernel.  Both kernels must reproduce
them byte for byte — independently, so a behavior drift in *either*
kernel fails here even if the two still agree with each other.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).parent / "golden"
FIXTURE = GOLDEN_DIR / "flat_kernel_payloads.json"


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "generate_flat_golden", GOLDEN_DIR / "generate_flat_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("generate_flat_golden", module)
    spec.loader.exec_module(module)
    return module

_generator = _load_generator()
_fixture = json.loads(FIXTURE.read_text())


def _trace_params():
    return [
        pytest.param(trace, kernel, id=f"{trace['name']}-{kernel}")
        for trace in _fixture["traces"]
        for kernel in ("object", "flat")
    ]


@pytest.mark.parametrize("trace,kernel", _trace_params())
def test_kernel_reproduces_golden_payloads(trace, kernel):
    assert _fixture["format"] == 1
    records = _generator.replay(trace, kernel)
    expected = trace["records"]
    assert len(records) == len(expected)
    for step, (got, want) in enumerate(zip(records, expected)):
        assert got == want, (
            f"trace {trace['name']!r} kernel {kernel!r} diverges from the "
            f"golden payload at step {step} (epoch {want['epoch']})"
        )


def test_fixture_covers_interesting_shapes():
    """The corpus must keep exercising splits, departures and owf advances."""
    by_name = {trace["name"]: trace for trace in _fixture["traces"]}
    assert {"deg2-mixed", "deg3-mixed", "deg4-owf"} <= set(by_name)
    total_wraps = sum(
        len(record["wraps"])
        for trace in _fixture["traces"]
        for record in trace["records"]
    )
    assert total_wraps > 100
    assert any(
        record["departed"]
        for record in by_name["deg3-mixed"]["records"]
    )
    assert any(
        record["advanced"]
        for record in by_name["deg4-owf"]["records"]
    )
