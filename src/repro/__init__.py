"""repro — reproduction of "Performance Optimizations for Group Key
Management Schemes for Secure Multicast" (Zhu, Setia, Jajodia, ICDCS 2003).

The package implements the paper's two optimizations and everything they
stand on:

* logical key hierarchies with batched rekeying (:mod:`repro.keytree`),
* the two-partition key servers QT/TT/PT (:mod:`repro.server`),
* the loss-homogenized multi-keytree server (:mod:`repro.server`),
* reliable rekey transports — multi-send, WKA-BKR, proactive FEC
  (:mod:`repro.transport`) over a lossy multicast channel
  (:mod:`repro.network`),
* the paper's analytic models (:mod:`repro.analysis`),
* a discrete-event simulator cross-validating them (:mod:`repro.sim`),
* and per-figure experiment drivers (:mod:`repro.experiments`).

Quickstart::

    from repro import TwoPartitionServer

    server = TwoPartitionServer(mode="tt", s_period=600.0, degree=4)
    reg = server.join("alice", at_time=0.0)
    batch = server.rekey(now=60.0)       # periodic batched rekeying
    print(batch.cost, "encrypted keys")

See README.md for a guided tour and DESIGN.md for the system inventory.
"""

from repro.analysis import TwoPartitionParameters, scheme_costs
from repro.crypto import KeyGenerator, KeyMaterial, RekeyMessage
from repro.members import Member, TwoClassDuration
from repro.network import BernoulliLoss, MulticastChannel
from repro.server import (
    AdaptiveController,
    BatchResult,
    LossHomogenizedServer,
    OneTreeServer,
    TwoPartitionServer,
)
from repro.sim import GroupRekeyingSimulation, SimulationConfig
from repro.transport import (
    MultiSendProtocol,
    ProactiveFecProtocol,
    WkaBkrProtocol,
)

__version__ = "1.0.0"

__all__ = [
    "AdaptiveController",
    "BatchResult",
    "BernoulliLoss",
    "GroupRekeyingSimulation",
    "KeyGenerator",
    "KeyMaterial",
    "LossHomogenizedServer",
    "Member",
    "MultiSendProtocol",
    "MulticastChannel",
    "OneTreeServer",
    "ProactiveFecProtocol",
    "RekeyMessage",
    "SimulationConfig",
    "TwoClassDuration",
    "TwoPartitionParameters",
    "TwoPartitionServer",
    "WkaBkrProtocol",
    "scheme_costs",
]
