"""Transport tasks and results shared by all rekey transport protocols."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.crypto.wrap import EncryptedKey
from repro.keytree.lkh import RekeyMessage


def audiences_of(interest: Dict[str, Set[int]]) -> Dict[int, Set[str]]:
    """Invert ``receiver -> wanted key indices`` into ``index -> audience``.

    Only keys somebody wants appear.  This is the one audience builder:
    a task's :meth:`TransportTask.audiences` and every WKA-BKR round (over
    the interest still outstanding) go through it.
    """
    audiences: Dict[int, Set[str]] = {}
    for rid, wanted in interest.items():
        for index in wanted:
            audience = audiences.get(index)
            if audience is None:
                audiences[index] = {rid}
            else:
                audience.add(rid)
    return audiences


@dataclass
class TransportTask:
    """One rekey delivery job.

    Attributes
    ----------
    keys:
        The encrypted keys of the rekey message, indexed by position.
    interest:
        ``receiver_id -> set of key indices`` that receiver must obtain.
        Receivers with empty interest are ignored (they need nothing this
        round — e.g. L-partition members during a pure S-partition rekey
        already covered by one group-key encryption they received).
    """

    keys: List[EncryptedKey]
    interest: Dict[str, Set[int]]

    def receivers_needing(self, index: int) -> Set[str]:
        """Audience of one key: receivers whose interest includes it."""
        return {rid for rid, wanted in self.interest.items() if index in wanted}

    def audiences(self) -> Dict[int, Set[str]]:
        """index -> audience, for every key with a non-empty audience."""
        return audiences_of(self.interest)


@dataclass
class TransportResult:
    """Outcome and cost of delivering one rekey payload.

    ``satisfied`` covers every receiver the transport was still
    responsible for at the end: receivers recorded in ``abandoned``
    (dropped by a :class:`~repro.faults.retry.RetryPolicy` after its
    per-receiver threshold) no longer count against it — they are the
    server's problem now, via the unicast catch-up path.  ``elapsed`` is
    the virtual time the delivery occupied: the sum of the retry policy's
    inter-round backoff delays (zero without a policy).

    ``completed`` records, per satisfied receiver, the virtual elapsed
    time at the round where its wanted set emptied — the raw material for
    member-level time-to-new-DEK accounting.  Receivers satisfied in
    round 0 complete at 0.0; abandoned or departed receivers never
    appear (their stories close via resync or departure, not here).
    """

    rounds: int = 0
    packets_sent: int = 0
    keys_sent: int = 0
    parity_packets: int = 0
    satisfied: bool = False
    per_round_packets: List[int] = field(default_factory=list)
    abandoned: Set[str] = field(default_factory=set)
    #: receivers that needed at least one retransmission round (they were
    #: transiently LAGGING in the recovery state machine's terms)
    late: Set[str] = field(default_factory=set)
    elapsed: float = 0.0
    #: receiver_id -> virtual elapsed seconds when its interest was met
    completed: Dict[str, float] = field(default_factory=dict)

    def merge_round(self, packets: int, keys: int, parity: int = 0) -> None:
        self.rounds += 1
        self.packets_sent += packets
        self.keys_sent += keys
        self.parity_packets += parity
        self.per_round_packets.append(packets)


class TransportExhausted(RuntimeError):
    """A transport hit its hard round cap with receivers still unsatisfied.

    Raised instead of looping forever when the loss process never lets the
    remaining receivers complete (e.g. loss rate approaching 1.0).  Carries
    the partial :class:`TransportResult` accumulated so far and the ids of
    the receivers still ``pending``, so the caller can degrade gracefully —
    typically by marking them ``OUT_OF_SYNC`` and falling back to unicast
    recovery (see :mod:`repro.faults.recovery`).
    """

    def __init__(self, message: str, result: TransportResult, pending: Set[str]):
        super().__init__(message)
        self.result = result
        self.pending = frozenset(pending)


def build_task(
    message: RekeyMessage,
    held_versions: Dict[str, Dict[str, int]],
) -> TransportTask:
    """Derive per-receiver interest for a rekey message.

    Parameters
    ----------
    message:
        The rekey broadcast produced by the server.
    held_versions:
        ``receiver_id -> {key_id: version}`` — what each receiver holds
        *before* this message (the server knows this; real receivers
        equivalently derive their own interest from key ids in packet
        headers).

    Interest is the fixed-point closure: a key is interesting if its wrap
    can be opened with a held key or with another interesting key from the
    same message (rekey messages chain fresh parents onto fresh children).
    Computed through the message's shared positional index, so the work per
    receiver is O(its tree depth) rather than O(message size).
    """
    index = message.index()
    interest: Dict[str, Set[int]] = {}
    for receiver_id, versions in held_versions.items():
        interest[receiver_id] = {pos for pos, _ in index.closure(versions)}
    return TransportTask(keys=list(message.encrypted_keys), interest=interest)
