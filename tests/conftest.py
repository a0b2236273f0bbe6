"""Shared fixtures for the test suite."""

import pytest

from repro.crypto.material import KeyGenerator
from repro.server.onetree import OneTreeServer
from repro.testing import ConformanceHarness
from repro.testing.lkh import LkhRekeyer
from repro.testing.tree import KeyTree


@pytest.fixture
def keygen():
    """A deterministic key generator (fresh per test)."""
    return KeyGenerator(seed=1234)


@pytest.fixture
def tree(keygen):
    """An empty degree-4 key tree."""
    return KeyTree(degree=4, keygen=keygen, name="t")


@pytest.fixture
def rekeyer(tree):
    """A rekeyer bound to the ``tree`` fixture."""
    return LkhRekeyer(tree)


@pytest.fixture
def harness():
    """A conformance harness around a fresh one-keytree server.

    Tests that need a server already under full security audit can drive
    this instead of wiring members by hand; any invariant breach raises
    ``repro.testing.InvariantViolation`` at the offending rekey point.
    """
    return ConformanceHarness(OneTreeServer(degree=4, keygen=KeyGenerator(seed=99)))


@pytest.fixture
def make_harness():
    """Factory fixture: build an audited harness around any server."""

    def build(server, **kwargs):
        return ConformanceHarness(server, **kwargs)

    return build
