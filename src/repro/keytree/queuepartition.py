"""The linear-queue S-partition used by the QT-scheme (Section 3.2).

In the QT-scheme the short-term partition is not a tree at all: members in
it hold exactly two keys — their individual key and the group key.  The two
opposing effects the paper notes:

* a join is cheap: the joiner needs only the (fresh) group key, one
  encryption under its individual key, plus one encryption of the fresh
  group key under the previous group key for everyone else;
* a departure is expensive relative to tree schemes: the fresh group key
  must be encrypted *individually* for every remaining queue member, so a
  departure batch costs ``Ns`` encryptions (the ``Neq = Ns`` term in
  eq. 8 of the paper).

This module only manages queue membership and individual keys; deciding
when to roll the group key is done by the composed server
(:class:`repro.server.partitioned.PartitionedServer`), which owns the
group DEK and treats the queue as the degenerate, tree-less partition:
it answers the same questions a key tree does (:meth:`QueuePartition.apply`,
:meth:`~QueuePartition.wrap_dek`, :meth:`~QueuePartition.path_keys`) with
no auxiliary keys of its own.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto.material import KeyGenerator, KeyMaterial
from repro.crypto.wrap import WrapBatch
from repro.obs import metrics as obs_metrics


class QueuePartition:
    """A flat set of members, each holding only an individual key.

    Parameters
    ----------
    keygen:
        Fresh-key source for member individual keys generated here.
    name:
        Label used in diagnostics; individual key ids are global
        (``member:<id>``) so they survive migration to a tree partition.
    """

    #: What the composed server calls this partition in a batch breakdown.
    label = "s-partition"

    def __init__(self, keygen: Optional[KeyGenerator] = None, name: str = "queue") -> None:
        self.keygen = keygen if keygen is not None else KeyGenerator()
        self.name = name
        self._keys: Dict[str, KeyMaterial] = {}

    @property
    def size(self) -> int:
        """Number of members currently in the queue."""
        return len(self._keys)

    def __contains__(self, member_id: str) -> bool:
        return member_id in self._keys

    def members(self) -> List[str]:
        """Member ids currently in the queue (unordered)."""
        return list(self._keys)

    def key_of(self, member_id: str) -> KeyMaterial:
        """The individual key shared with ``member_id``."""
        try:
            return self._keys[member_id]
        except KeyError:
            raise KeyError(
                f"member {member_id!r} is not in queue {self.name!r}"
            ) from None

    def add_member(
        self, member_id: str, key: Optional[KeyMaterial] = None
    ) -> KeyMaterial:
        """Register ``member_id``; returns its individual key."""
        if member_id in self._keys:
            raise ValueError(f"member {member_id!r} already in queue {self.name!r}")
        if key is None:
            key = self.keygen.generate(f"member:{member_id}")
        self._keys[member_id] = key
        return key

    def remove_member(self, member_id: str) -> KeyMaterial:
        """Evict ``member_id``; returns the individual key it held.

        The caller (composed server) must roll the group key afterwards —
        the queue has no auxiliary keys of its own to refresh.
        """
        key = self._keys.pop(member_id, None)
        if key is None:
            raise KeyError(f"member {member_id!r} is not in queue {self.name!r}")
        return key

    # ------------------------------------------------------------------
    # the partition questions a composed server asks
    # ------------------------------------------------------------------

    def apply(
        self,
        joins: Sequence[Tuple[str, KeyMaterial]],
        departures: Sequence[str],
        join_refresh: str = "random",
    ) -> None:
        """Apply this partition's slice of a batch.

        Returns no rekey message: the queue has no keys to refresh, its
        whole cost is the per-resident DEK distribution of :meth:`wrap_dek`.
        """
        for member_id in departures:
            self.remove_member(member_id)
        for member_id, key in joins:
            self.add_member(member_id, key)

    def wrap_dek(
        self, dek: KeyMaterial, joiners: Optional[Sequence[str]] = None
    ) -> WrapBatch:
        """``dek`` wrapped under the individual key of every resident, or of
        ``joiners`` only, one row each.

        For every resident this is the ``Neq = Ns`` cost term of the
        QT-scheme: one encrypted key per resident member.
        """
        keys = self._keys.values() if joiners is None else map(self.key_of, joiners)
        dek_id, dek_version = dek.handle
        wraps = WrapBatch()
        for key in keys:
            wraps.add(key.key_id, key.version, dek_id, dek_version, key.secret, dek.secret)
        if wraps:
            obs_metrics.inc("crypto.wraps", len(wraps))
        return wraps

    def path_keys(self, member_id: str) -> List[KeyMaterial]:
        """Keys above the member's own: none, the queue has no tree."""
        self.key_of(member_id)
        return []

    def dump(self) -> Dict:
        """Snapshot form (SENSITIVE: every resident's individual key)."""
        keys = [key.to_dict() for key in self._keys.values()]
        return {"label": self.label, "queue": {"name": self.name, "keys": keys}}

    @classmethod
    def load(cls, data: Dict, shared: KeyGenerator) -> "QueuePartition":
        """Rebuild from :meth:`dump` output."""
        queue = cls(keygen=shared, name=data["queue"]["name"])
        for entry in data["queue"]["keys"]:
            key = KeyMaterial.from_dict(entry)
            queue._keys[key.key_id.split(":", 1)[1]] = key
        return queue

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<QueuePartition {self.name!r} members={self.size}>"
