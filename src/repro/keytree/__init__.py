"""Logical key hierarchies (LKH) and related key-tree structures.

This package implements the data structures the paper's key server
maintains:

* :class:`KeyTree` — a d-ary logical key tree with balanced insertion,
  leaf removal with path contraction, and structural validation
  (Wallner et al. / Wong et al. style).
* :class:`LkhRekeyer` — the group-oriented rekeying algorithm over a
  :class:`KeyTree`: individual join/leave procedures (Section 2.1 of the
  paper) and periodic *batched* rekeying (Section 2.1.1), producing
  :class:`RekeyMessage` objects whose encrypted-key count is the paper's
  cost metric.
* :mod:`repro.keytree.flat` — the same tree and algorithm over flat
  arrays, byte for byte: what every server builds, with :class:`KeyTree`
  and :class:`LkhRekeyer` as the reference it is tested against.
* :class:`QueuePartition` — the flat linear-queue structure used for the
  S-partition of the QT-scheme (Section 3.2): members hold only their
  individual key and the group key.
Extensions covering the rest of the paper's Section 1 survey:

* :class:`OneWayFunctionTree` — OFT [BM00] (the paper notes its
  optimizations also apply to OFT-style trees);
* :class:`HuffmanKeyTree` — probabilistic organization [SMS00], the
  general form of the PT-scheme's known-class placement;
* :class:`MarksKeySequence` / :class:`MarksReceiver` — MARKS [Briscoe99]
  zero-side-effect key sequences for pre-planned membership;
* :class:`CompleteSubtreeCenter` / :class:`CompleteSubtreeReceiver` — the
  Complete-Subtree base scheme of the Subset-Difference family [MNL01],
  stateless receivers;
* ``LkhRekeyer.rekey_batch(join_refresh="owf")`` — ELK [PST01] / LKH+
  style one-way key advancement for join-only batches;
* :mod:`repro.keytree.serialize` — key-tree persistence.
"""

from repro.keytree.lkh import LkhRekeyer, RekeyMessage
from repro.keytree.marks import MarksKeySequence, MarksReceiver
from repro.keytree.node import Node
from repro.keytree.oft import OneWayFunctionTree
from repro.keytree.probabilistic import HuffmanKeyTree
from repro.keytree.queuepartition import QueuePartition
from repro.keytree.stats import TreeStats, collect_stats
from repro.keytree.subsetcover import CompleteSubtreeCenter, CompleteSubtreeReceiver
from repro.keytree.tree import KeyTree

__all__ = [
    "CompleteSubtreeCenter",
    "CompleteSubtreeReceiver",
    "HuffmanKeyTree",
    "KeyTree",
    "LkhRekeyer",
    "MarksKeySequence",
    "MarksReceiver",
    "Node",
    "OneWayFunctionTree",
    "QueuePartition",
    "RekeyMessage",
    "TreeStats",
    "collect_stats",
]
