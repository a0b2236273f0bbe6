"""Key servers: the schemes the paper compares.

One server class, :class:`PartitionedServer` — sub-trees under a group
DEK, members placed by a :class:`PlacementPolicy` — and three factories
over it:

* :class:`OneTreeServer` — the un-optimized baseline: one balanced LKH tree.
* :class:`TwoPartitionServer` — Section 3: QT (queue + tree), TT (tree +
  tree) and PT (oracle placement), with batched S-to-L migration.
* :class:`LossHomogenizedServer` — Section 4: one key tree per loss class
  (or round-robin placement, the control).

:class:`AdaptiveController` (Section 3.4) estimates (Ms, Ml, alpha) from
the observed membership trace and picks the best scheme and S-period.
Every server has the one class's lifecycle: ``join`` / ``leave`` enqueue
membership changes; ``rekey`` processes the batch and returns a
:class:`BatchResult` whose encrypted keys are handed to a transport (or
counted — the paper's metric).  :func:`build_server` makes one from its
scheme name, the way the CLI and the chaos harness name them.
"""

from repro.server.adaptive import AdaptiveController, TraceEstimate
from repro.server.base import BatchResult, Registration
from repro.server.losshomog import LossHomogenizedServer
from repro.server.onetree import OneTreeServer
from repro.server.partitioned import PartitionedServer
from repro.server.placement import PlacementPolicy
from repro.server.snapshot import restore_server, snapshot_server
from repro.server.twopartition import TwoPartitionServer


def build_server(
    scheme: str, degree: int = 4, s_period: float = 600.0
) -> PartitionedServer:
    """A fresh server for a scheme name: ``one``, ``qt`` / ``tt`` / ``pt``
    (S-period ``s_period``), ``losshomog`` (loss placement) or
    ``random-trees`` (its round-robin control), every tree of ``degree``."""
    if scheme == "one":
        return OneTreeServer(degree=degree)
    if scheme in ("qt", "tt", "pt"):
        return TwoPartitionServer(mode=scheme, s_period=s_period, degree=degree)
    if scheme == "losshomog":
        return LossHomogenizedServer(degree=degree, placement="loss")
    if scheme == "random-trees":
        return LossHomogenizedServer(degree=degree, placement="random")
    raise ValueError(f"unknown scheme {scheme!r}")


__all__ = [
    "AdaptiveController",
    "BatchResult",
    "LossHomogenizedServer",
    "OneTreeServer",
    "PartitionedServer",
    "PlacementPolicy",
    "Registration",
    "TraceEstimate",
    "build_server",
    "restore_server",
    "snapshot_server",
    "TwoPartitionServer",
]
