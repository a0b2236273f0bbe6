"""Shared helpers for the test suite.

The heavier verification machinery (security-invariant audits, scenario
replay, the cross-scheme battery) lives in :mod:`repro.testing` — it is
product surface, usable by downstream deployments, not test-only code.
These helpers stay for the low-level tree/rekeyer tests that predate it.
"""

import importlib.util
import sys
from pathlib import Path

from repro.keytree.flat import FlatKeyTree, FlatRekeyer
from repro.members.population import LossClass, LossPopulation
from repro.server.losshomog import LossHomogenizedServer
from repro.testing import ConformanceHarness
from repro.testing.lkh import LkhRekeyer
from repro.testing.oracle import audiences_of
from repro.testing.tree import KeyTree
from repro.transport.session import TransportTask

#: The two key-tree implementations, as (tree class, rekeyer class): the
#: flat-array kernel every server builds, and the object tree that is its
#: reference.  Tests of a property both must have parametrize over this.
KERNELS = {
    "object": (KeyTree, LkhRekeyer),
    "flat": (FlatKeyTree, FlatRekeyer),
}


GOLDEN_DIR = Path(__file__).parent / "golden"

#: The suite's many-partition server: one key tree per loss class.
THREE_CLASS_RATES = (0.20, 0.10, 0.02)


def three_tree_server(**kwargs):
    """A loss-homogenized server with three trees under one DEK."""
    return LossHomogenizedServer(class_rates=THREE_CLASS_RATES, **kwargs)


def three_class_population():
    """Receivers over all three of :data:`THREE_CLASS_RATES`."""
    return LossPopulation(
        (
            LossClass("high", 0.20, 0.2),
            LossClass("mid", 0.10, 0.3),
            LossClass("low", 0.02, 0.5),
        )
    )


def load_golden_generator(name):
    """The module ``tests/golden/<name>.py`` (a script, not a package member)."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, GOLDEN_DIR / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


class PrivateIndexHarness(ConformanceHarness):
    """Delivers as a deployed group receives: every receiver indexes the
    payload for itself and opens every wrap itself, so nothing is served
    from a shared opened-wrap table."""

    def _deliver(self, result, receivers):
        for receiver in receivers:
            receiver.absorb(result.encrypted_keys)


def populate(rekeyer, count, prefix="m"):
    """Admit ``count`` members through one batch; returns their ids."""
    members = [f"{prefix}{i}" for i in range(count)]
    rekeyer.rekey_batch(joins=[(m, None) for m in members])
    return members


def populate_harness(harness, count, prefix="m", **attributes):
    """Admit ``count`` members through one audited batch; returns their ids."""
    members = [f"{prefix}{i}" for i in range(count)]
    for member_id in members:
        harness.join(member_id, **attributes)
    harness.rekey()
    return members


def task_of(keys, interest):
    """A transport task for receivers wanting the rows ``interest`` maps
    each one to: the per-receiver view a test writes, inverted."""
    return TransportTask(keys=keys, audiences=audiences_of(interest))


def interest_of(audiences):
    """``receiver -> rows`` it is named in, read back off ``row ->
    receivers`` audiences."""
    interest = {}
    for row, audience in audiences.items():
        for rid in audience:
            interest.setdefault(rid, set()).add(row)
    return interest
