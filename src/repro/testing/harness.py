"""End-to-end conformance harness for group key servers.

:class:`ConformanceHarness` wraps any
:class:`~repro.server.partitioned.PartitionedServer` and drives *real*
:class:`~repro.members.member.Member` state machines through its batches,
auditing after every rekeying:

* **shadow model** — membership, epochs and batch accounting match an
  independent re-implementation of the batching contract
  (:class:`~repro.testing.shadow.ShadowGroup`);
* **key consistency** — every admitted member decrypts a data-plane probe
  under the exact current group key;
* **forward secrecy, adversarially** — evicted members are kept on as
  *greedy adversaries* that continue to receive every multicast broadcast
  and apply every one-way advance, and must still never reach the current
  DEK (checked against key material, not bookkeeping);
* **backward secrecy** — a joiner's key material never contains a group
  key from an epoch that closed before it was admitted;
* **structure** — every key tree validates, partitions are disjoint and
  cover the membership;
* **recovery** — on demand, one unicast resync restores a blank member to
  full data-plane capability.

The harness is deployment-grade, not test-only: a downstream integrator
can run their own server subclass through it (or through
``python -m repro selfcheck``) to prove the same properties hold.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.crypto.material import KeyMaterial
from repro.members.member import Member
from repro.server.base import BatchResult, Registration
from repro.server.partitioned import PartitionedServer
from repro.testing.invariants import (
    InvariantViolation,
    check_backward_secrecy,
    check_forward_secrecy,
    check_member_decrypts,
    check_resync,
    check_structures,
)
from repro.testing.shadow import ShadowGroup


class ConformanceHarness:
    """Drive a key server while auditing every security invariant.

    Parameters
    ----------
    server:
        The scheme under audit.  The harness owns its lifecycle: use
        :meth:`join`, :meth:`leave` and :meth:`rekey` instead of calling
        the server directly.
    max_adversaries:
        How many evicted members to keep replaying broadcasts into.  The
        oldest are retired first; ``0`` disables the adversarial check.
    structural_checks:
        Validate tree structures after every batch (quadratic-ish in tree
        size; switch off for very large scripted runs).
    """

    def __init__(
        self,
        server: PartitionedServer,
        *,
        max_adversaries: int = 16,
        structural_checks: bool = True,
    ) -> None:
        self.server = server
        self.max_adversaries = max_adversaries
        self.structural_checks = structural_checks
        self.now = 0.0
        self.members: Dict[str, Member] = {}
        self.registrations: Dict[str, Registration] = {}
        self.adversaries: List[Member] = []
        self.shadow = ShadowGroup()
        self.history: List[BatchResult] = []
        #: DEK secrets of every closed epoch, for backward-secrecy checks.
        self.dek_history: List[bytes] = []
        self._admission_pending: List[str] = []
        self._eviction_pending: List[str] = []

    # ------------------------------------------------------------------
    # workload interface
    # ------------------------------------------------------------------

    def advance_time(self, seconds: float) -> float:
        """Move the harness clock forward (S-period migrations key off it)."""
        if seconds < 0:
            raise ValueError("time only moves forward")
        self.now += seconds
        return self.now

    def join(self, member_id: str, **attributes) -> Member:
        """Register a joiner; it is admitted at the next :meth:`rekey`."""
        registration = self.server.join(member_id, at_time=self.now, **attributes)
        member = Member(member_id, registration.individual_key)
        self.members[member_id] = member
        self.registrations[member_id] = registration
        self.shadow.join(member_id)
        self._admission_pending.append(member_id)
        return member

    def leave(self, member_id: str) -> None:
        """Queue a departure for the next :meth:`rekey`."""
        if member_id not in self.members:
            raise KeyError(f"harness does not track member {member_id!r}")
        self.server.leave(member_id, at_time=self.now)
        self.shadow.leave(member_id)
        if member_id in self._admission_pending:
            # Joined and left within one period: never admitted, never
            # held a group key — drop it entirely (and prove it below).
            self._admission_pending.remove(member_id)
            ghost = self.members.pop(member_id)
            self.registrations.pop(member_id)
            if ghost.key_count() != 1:
                raise InvariantViolation(
                    f"never-admitted member {member_id!r} acquired keys"
                )
            return
        self._eviction_pending.append(member_id)

    # ------------------------------------------------------------------
    # rekeying and audit
    # ------------------------------------------------------------------

    def rekey(self) -> BatchResult:
        """Run one batch rekeying and audit everything observable."""
        freshly_admitted = self._admission_pending
        self._admission_pending = []
        evicted_ids = self._eviction_pending
        self._eviction_pending = []

        result = self.server.rekey(now=self.now)
        self.shadow.audit(self.server, result)
        self.history.append(result)

        for member_id in evicted_ids:
            member = self.members.pop(member_id)
            self.registrations.pop(member_id)
            self.adversaries.append(member)
        if self.max_adversaries >= 0:
            del self.adversaries[: max(0, len(self.adversaries) - self.max_adversaries)]

        # Multicast delivery: live members AND evicted adversaries see the
        # full broadcast — secrecy must hold against the wire, not against
        # polite receivers.  Adversaries go last: by then the payload's
        # opened-wrap table holds every key a live member unwrapped.
        receivers = list(self.members.values()) + self.adversaries
        if result.advanced:
            for receiver in receivers:
                receiver.apply_advances(result.advanced)
        if result.encrypted_keys:
            self._deliver(result, receivers)

        self._audit_after_delivery(result, freshly_admitted)
        return result

    def _deliver(self, result: BatchResult, receivers: List[Member]) -> None:
        """Every receiver absorbs the payload through its one shared index,
        as the simulator delivers it."""
        index = result.index()
        for receiver in receivers:
            receiver.absorb(result.encrypted_keys, index=index)

    def _audit_after_delivery(
        self, result: BatchResult, freshly_admitted: List[str]
    ) -> None:
        dek = self.server.group_key()
        epoch = result.epoch
        for member in self.members.values():
            check_member_decrypts(member, dek, epoch=epoch)
        for adversary in self.adversaries:
            check_forward_secrecy(adversary, dek, epoch=epoch)
        for member_id in freshly_admitted:
            check_backward_secrecy(
                self.members[member_id], self.dek_history, epoch=epoch
            )
        if self.structural_checks:
            check_structures(self.server)
        if not self.dek_history or self.dek_history[-1] != dek.secret:
            self.dek_history.append(dek.secret)

    # ------------------------------------------------------------------
    # recovery audit
    # ------------------------------------------------------------------

    def check_resync(self, member_id: str) -> Member:
        """Prove one unicast resync restores ``member_id`` from scratch."""
        registration = self.registrations.get(member_id)
        if registration is None:
            raise KeyError(f"harness does not track member {member_id!r}")
        epoch = self.history[-1].epoch if self.history else 0
        return check_resync(
            self.server, member_id, registration.individual_key, epoch=epoch
        )

    def check_all_resyncs(self) -> None:
        """Run the resync audit for every admitted member."""
        for member_id in list(self.members):
            if member_id in self._admission_pending:
                continue
            self.check_resync(member_id)

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------

    @property
    def epochs(self) -> int:
        """Batches processed so far."""
        return len(self.history)

    def total_cost(self) -> int:
        """Total encrypted keys across all batches (the paper's metric)."""
        return sum(result.cost for result in self.history)
