"""Logical key hierarchies (LKH) and related key-tree structures.

This package implements the data structures the paper's key server
maintains:

* :mod:`repro.keytree.flat` — :class:`~repro.keytree.flat.FlatKeyTree`, a
  d-ary logical key tree over flat arrays with balanced insertion, leaf
  removal with path contraction and structural validation (Wallner et al.
  / Wong et al. style), and :class:`~repro.keytree.flat.FlatRekeyer`, the
  group-oriented rekeying algorithm over it: individual join/leave
  procedures (Section 2.1 of the paper) and periodic *batched* rekeying
  (Section 2.1.1), producing :class:`~repro.crypto.wrap.RekeyMessage`
  objects whose encrypted-key count is the paper's cost metric.  Every
  server builds it, and its dumps are the key-tree persistence format.
  The object-per-node tree it is tested against byte for byte lives in
  :mod:`repro.testing` (``repro.testing.tree`` / ``repro.testing.lkh``),
  off the product path.
* :class:`QueuePartition` — the flat linear-queue structure used for the
  S-partition of the QT-scheme (Section 3.2): members hold only their
  individual key and the group key.
* ``FlatRekeyer.rekey_batch(join_refresh="owf")`` — ELK [PST01] / LKH+
  style one-way key advancement for join-only batches.

Two modules outside the product path stay importable by their own names:
:mod:`repro.keytree.probabilistic` (``HuffmanKeyTree``, the probabilistic
organization [SMS00], the general form of the PT-scheme's known-class
placement) and :mod:`repro.keytree.node`, the node class it and the
reference kernel in :mod:`repro.testing` build.  The package does not
import either, so a product run loads neither.
"""

from repro.keytree.queuepartition import QueuePartition

__all__ = ["QueuePartition"]
