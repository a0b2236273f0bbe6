"""Golden-payload regression anchors: tree kernels and key servers.

``tests/golden/flat_kernel_payloads.json`` pins the exact wire bytes
(wrap order, versions, ciphertexts) of a handful of deterministic churn
traces, recorded from the object kernel.  Both kernels must reproduce
them byte for byte — independently, so a behavior drift in *either*
kernel fails here even if the two still agree with each other.

``tests/golden/server_payloads.json`` does the same one layer up: for
each of seven conformance schemes, one seeded churn trace (joins
only, departures only, mixed, empty and migration-only batches) with
every batch's wraps, breakdown, migrations, group key and generator
counter, recorded before the four server classes became one.
"""

import json

import pytest

from tests.helpers import load_golden_generator

_generator = load_golden_generator("generate_flat_golden")
_fixture = json.loads(_generator.FIXTURE.read_text())
_server_generator = load_golden_generator("generate_server_golden")
_server_fixture = json.loads(_server_generator.FIXTURE.read_text())


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


@pytest.mark.parametrize("scheme", _server_generator.SCHEMES)
def test_server_reproduces_golden_payloads(scheme):
    assert _server_fixture["format"] == 1
    expected = _server_fixture["schemes"][scheme]
    records = _server_generator.replay(scheme)
    assert len(records) == len(expected) == len(_server_generator.SCHEDULE)
    for got, want in zip(records, expected):
        for field in want:
            assert got[field] == want[field], (
                f"scheme {scheme!r} diverges from the golden payload at "
                f"epoch {want['epoch']} in {field!r}"
            )


def test_server_fixture_covers_every_batch_shape():
    assert set(_server_fixture["schemes"]) == set(_server_generator.SCHEMES)
    _server_generator._check_coverage(_server_fixture)
