"""Conformance and verification tooling for group key servers.

This package is the repository's *executable security contract*: a
scheme-independent harness that drives real member state machines against
any :class:`~repro.server.partitioned.PartitionedServer` and audits — at
the key-material and ciphertext level — the properties the paper's schemes
exist to provide (forward/backward secrecy, key consistency, batching
semantics, structural soundness, unicast recoverability).

It ships in ``src`` rather than under ``tests/`` because it is product
surface: a downstream deployment subclassing one of the servers runs the
same battery via :func:`~repro.testing.conformance.run_conformance` or
``python -m repro selfcheck``.

Hypothesis strategies for randomized audits live in
:mod:`repro.testing.strategies`, which is intentionally not imported here
(production installs need no ``hypothesis``).  Neither is
:mod:`repro.testing.oracle`: it holds the reference implementations the
product code is tested against — the object-per-node key tree
(:mod:`repro.testing.tree`, :mod:`repro.testing.lkh`,
:mod:`repro.testing.serialize`), :func:`~repro.testing.oracle.with_object_trees`
and the closure-derived transport interest — and importing this package
(``repro.faults.chaos`` does) must not load that kernel.
"""

from repro.testing.conformance import (
    SCHEME_FACTORIES,
    SchemeSpec,
    default_join_attributes,
    run_conformance,
    scheme_specs,
)
from repro.testing.harness import ConformanceHarness
from repro.testing.invariants import (
    InvariantViolation,
    check_backward_secrecy,
    check_batch_accounting,
    check_forward_secrecy,
    check_member_decrypts,
    check_resync,
    check_structures,
    probe_ciphertext,
)
from repro.testing.scenario import Scenario, standard_scenarios
from repro.testing.shadow import ShadowGroup

__all__ = [
    "SCHEME_FACTORIES",
    "ConformanceHarness",
    "InvariantViolation",
    "Scenario",
    "SchemeSpec",
    "ShadowGroup",
    "check_backward_secrecy",
    "check_batch_accounting",
    "check_forward_secrecy",
    "check_member_decrypts",
    "check_resync",
    "check_structures",
    "default_join_attributes",
    "probe_ciphertext",
    "run_conformance",
    "scheme_specs",
    "standard_scenarios",
]
