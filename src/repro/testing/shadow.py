"""A model-based oracle for the server-side batching protocol.

:class:`ShadowGroup` re-implements the *observable* contract of
:class:`~repro.server.partitioned.PartitionedServer` — membership
accounting, pending-batch semantics (including the join-then-leave-within-
one-period corner), epoch numbering — with none of the key-tree machinery, and
cross-checks every :class:`~repro.server.base.BatchResult` a real server
emits against what the model says must have happened.

Because the shadow is independent of every scheme's internals, the same
oracle audits the one-keytree baseline, all three two-partition
constructions and the loss-homogenized multi-tree server.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.server.base import BatchResult
from repro.server.partitioned import PartitionedServer
from repro.testing.invariants import InvariantViolation, check_batch_accounting


class ShadowGroup:
    """Tracks what a correct server must report, from the outside."""

    def __init__(self) -> None:
        self.members: Set[str] = set()
        self.pending_joins: Set[str] = set()
        self.pending_leaves: Set[str] = set()
        self.next_epoch = 1
        self.migrated_ever: Set[str] = set()

    def join(self, member_id: str) -> None:
        if member_id in self.members or member_id in self.pending_joins:
            raise InvariantViolation(
                f"shadow: duplicate join of {member_id!r} was accepted"
            )
        self.pending_joins.add(member_id)

    def leave(self, member_id: str) -> None:
        if member_id in self.pending_joins:
            # Joined and left within one period: vanishes without a trace.
            self.pending_joins.discard(member_id)
            return
        if member_id not in self.members:
            raise InvariantViolation(
                f"shadow: departure of unknown member {member_id!r} was accepted"
            )
        if member_id in self.pending_leaves:
            raise InvariantViolation(
                f"shadow: double departure of {member_id!r} was accepted"
            )
        self.pending_leaves.add(member_id)

    def audit(self, server: PartitionedServer, result: BatchResult) -> None:
        """Check one batch result against the model, then advance it."""
        if result.epoch != self.next_epoch:
            raise InvariantViolation(
                f"shadow: expected epoch {self.next_epoch}, server reported "
                f"{result.epoch}"
            )
        if set(result.joined) != self.pending_joins:
            raise InvariantViolation(
                f"epoch {result.epoch}: joined {sorted(result.joined)} != "
                f"pending {sorted(self.pending_joins)}"
            )
        if set(result.departed) != self.pending_leaves:
            raise InvariantViolation(
                f"epoch {result.epoch}: departed {sorted(result.departed)} != "
                f"pending {sorted(self.pending_leaves)}"
            )
        migrated = set(result.migrated)
        if migrated - self.members:
            raise InvariantViolation(
                f"epoch {result.epoch}: migrated non-members "
                f"{sorted(migrated - self.members)}"
            )
        if migrated & self.pending_leaves:
            raise InvariantViolation(
                f"epoch {result.epoch}: migrated departing members "
                f"{sorted(migrated & self.pending_leaves)}"
            )
        if migrated & self.migrated_ever:
            raise InvariantViolation(
                f"epoch {result.epoch}: re-migrated members "
                f"{sorted(migrated & self.migrated_ever)}"
            )
        check_batch_accounting(result)
        if (result.joined or result.departed) and result.cost == 0 and not result.advanced:
            # Every admission or eviction must move key material somehow
            # (wraps on the wire or one-way advances) once a group exists.
            survivors = (self.members | set(result.joined)) - set(result.departed)
            if survivors:
                raise InvariantViolation(
                    f"epoch {result.epoch}: membership changed but no key "
                    f"material was distributed"
                )

        self.members |= self.pending_joins
        self.members -= self.pending_leaves
        # A member that departs forgets its migration status: the same id
        # may rejoin later and legitimately migrate again.
        self.migrated_ever -= self.pending_leaves
        self.migrated_ever |= migrated
        self.pending_joins.clear()
        self.pending_leaves.clear()
        self.next_epoch += 1

        if server.size != len(self.members):
            raise InvariantViolation(
                f"epoch {result.epoch}: server size {server.size} != shadow "
                f"size {len(self.members)}"
            )
        if set(server.members()) != self.members:
            raise InvariantViolation(
                f"epoch {result.epoch}: server membership diverged from shadow"
            )
