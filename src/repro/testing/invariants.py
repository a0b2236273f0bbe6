"""Security- and consistency-invariant checkers for group key servers.

Every checker raises :class:`InvariantViolation` with a message naming the
epoch, the member and the invariant, so a failing conformance run reads
like a protocol-audit report rather than a bare ``assert``.

The checks are *ciphertext-level* wherever that matters: forward secrecy
is established by handing the evicted member a fresh probe encrypted
under the current group key and requiring decryption to fail, and
backward secrecy by comparing the joiner's key material against the
recorded secrets of every earlier group-key epoch — not by trusting the
bookkeeping of either side.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.crypto.cipher import AuthenticationError, encrypt
from repro.crypto.material import KeyMaterial
from repro.members.member import Member
from repro.server.base import BatchResult
from repro.server.partitioned import PartitionedServer


class InvariantViolation(AssertionError):
    """A security or consistency invariant failed during conformance."""


PROBE_NONCE = b"repro-conformance-probe"
PROBE_TEXT = b"conformance probe plaintext"


def probe_ciphertext(dek: KeyMaterial) -> bytes:
    """A deterministic data-plane ciphertext under ``dek``."""
    return encrypt(dek.secret, PROBE_NONCE, PROBE_TEXT)


def check_member_decrypts(member: Member, dek: KeyMaterial, *, epoch: int) -> None:
    """``member`` must hold the exact current DEK and decrypt under it."""
    if not member.holds(dek.key_id, dek.version):
        held = member.held_versions().get(dek.key_id)
        raise InvariantViolation(
            f"epoch {epoch}: member {member.member_id!r} missing group key "
            f"{dek.key_id}#{dek.version} (holds version {held})"
        )
    blob = probe_ciphertext(dek)
    try:
        plain = member.decrypt_data(dek.key_id, PROBE_NONCE, blob)
    except (AuthenticationError, KeyError) as exc:
        raise InvariantViolation(
            f"epoch {epoch}: member {member.member_id!r} claims group key "
            f"{dek.key_id}#{dek.version} but cannot decrypt under it: {exc}"
        ) from None
    if plain != PROBE_TEXT:
        raise InvariantViolation(
            f"epoch {epoch}: member {member.member_id!r} decrypted the probe "
            f"to the wrong plaintext"
        )


def check_forward_secrecy(
    adversary: Member, dek: KeyMaterial, *, epoch: int, max_advances: int = 8
) -> None:
    """An evicted member must not reach the current DEK, even adversarially.

    The adversary may have kept absorbing every multicast broadcast after
    eviction and may apply one-way advances to everything it holds, so
    ``holds()`` bookkeeping proves nothing — the check compares actual key
    material: no key the adversary holds, nor any of its first
    ``max_advances`` one-way advances, may equal the current DEK secret.
    A direct decryption attempt backs the comparison up.
    """
    for key in adversary.held_versions():
        material = adversary.key(key)
        candidate = material
        for __ in range(max_advances + 1):
            if candidate.secret == dek.secret:
                raise InvariantViolation(
                    f"epoch {epoch}: evicted member {adversary.member_id!r} "
                    f"can derive the current group key from {material.key_id}"
                    f"#{material.version}"
                )
            candidate = candidate.advance()
    if adversary.holds(dek.key_id):
        blob = probe_ciphertext(dek)
        try:
            adversary.decrypt_data(dek.key_id, PROBE_NONCE, blob)
        except (AuthenticationError, KeyError):
            return
        raise InvariantViolation(
            f"epoch {epoch}: evicted member {adversary.member_id!r} decrypted "
            f"data-plane traffic under the current group key"
        )


def check_backward_secrecy(
    member: Member, historical_dek_secrets: Sequence[bytes], *, epoch: int
) -> None:
    """A joiner's key material must not contain any pre-join group key.

    ``historical_dek_secrets`` are the secrets of every group-key epoch
    that closed *before* the member was admitted.  One-way hashes only run
    forward, so holding the current DEK is fine; holding an earlier one
    would let the joiner read recorded pre-join traffic.
    """
    history = set(historical_dek_secrets)
    if not history:
        return
    for key_id in member.held_versions():
        if member.key(key_id).secret in history:
            raise InvariantViolation(
                f"epoch {epoch}: joiner {member.member_id!r} holds a group "
                f"key from a pre-join epoch (via {key_id!r})"
            )


def check_batch_accounting(result: BatchResult) -> None:
    """The batch's breakdown must attribute exactly its cost."""
    attributed = sum(result.breakdown.values())
    if result.breakdown and attributed != result.cost:
        raise InvariantViolation(
            f"epoch {result.epoch}: breakdown attributes {attributed} keys "
            f"but the payload carries {result.cost}"
        )
    for key_id, version in result.advanced:
        if version < 1:
            raise InvariantViolation(
                f"epoch {result.epoch}: one-way advance of {key_id!r} to "
                f"non-positive version {version}"
            )


def _tree_structures(server: PartitionedServer) -> List[Tuple[str, object]]:
    """(label, key tree) pairs for every tree partition a server holds."""
    return [
        (part.label, part.tree)
        for part in server.partitions
        if hasattr(part, "tree")
    ]


def check_structures(server: PartitionedServer) -> None:
    """Structural soundness: valid trees, disjoint partitions, full cover.

    Every key tree the server maintains must pass its own ``validate()``,
    the partitions' member sets must be pairwise disjoint, and together
    (queue partitions included) they must cover exactly the admitted
    membership.
    """
    for label, tree in _tree_structures(server):
        try:
            tree.validate()
        except Exception as exc:
            raise InvariantViolation(
                f"server {server.group!r}: {label} failed validation: {exc}"
            ) from exc
    placed: List[str] = []
    for part in server.partitions:
        placed.extend(part.members())
    if not placed and server.size == 0:
        return
    if len(placed) != len(set(placed)):
        dupes = sorted({m for m in placed if placed.count(m) > 1})
        raise InvariantViolation(
            f"server {server.group!r}: members placed in more than one "
            f"partition: {dupes[:5]}"
        )
    expected = set(server.members())
    if set(placed) != expected:
        missing = sorted(expected - set(placed))[:5]
        extra = sorted(set(placed) - expected)[:5]
        raise InvariantViolation(
            f"server {server.group!r}: partition membership mismatch "
            f"(missing={missing}, extra={extra})"
        )


def check_resync(
    server: PartitionedServer,
    member_id: str,
    individual_key: KeyMaterial,
    *,
    epoch: int,
) -> Member:
    """One unicast resync must fully restore a member that lost everything.

    Builds a fresh :class:`Member` holding only the registration-time
    individual key, feeds it ``server.resync(member_id)``, and requires it
    to end up decrypting current data-plane traffic.  Returns the restored
    member so callers can compare its state against the live one.
    """
    restored = Member(member_id, individual_key)
    payload = server.resync(member_id)
    restored.absorb(payload)
    dek = server.group_key()
    try:
        check_member_decrypts(restored, dek, epoch=epoch)
    except InvariantViolation as exc:
        raise InvariantViolation(f"resync failed: {exc}") from None
    return restored
