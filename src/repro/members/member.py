"""The receiver-side key state machine.

A member holds a set of identified, versioned keys: initially just the
individual key established at registration, then — as rekey messages are
absorbed — the keys on its path up to the group key.  The member never sees
the tree structure; everything it learns arrives as
:class:`~repro.crypto.wrap.EncryptedKey` records it can (or cannot) unwrap.

The tests use this class to prove the security properties end to end:
a member evicted at epoch *t* holds no key that unwraps any post-*t*
group-key ciphertext, and a member joining at *t* holds nothing that
decrypts pre-*t* data traffic.
"""

from __future__ import annotations

from hmac import compare_digest
from typing import Dict, Iterable, List, Optional

from repro.crypto.cipher import AuthenticationError, decrypt
from repro.crypto.material import KeyMaterial
from repro.crypto.wrap import EncryptedKey, RekeyMessage, WrapIndex
from repro.obs import metrics as obs_metrics


class Member:
    """One group member's key state.

    Parameters
    ----------
    member_id:
        The member's identity (matches the key server's view).
    individual_key:
        The key shared with the server at registration, over the simulated
        out-of-band secure channel.
    """

    def __init__(self, member_id: str, individual_key: KeyMaterial) -> None:
        self.member_id = member_id
        self._keys: Dict[str, KeyMaterial] = {individual_key.key_id: individual_key}

    # ------------------------------------------------------------------
    # key-state queries
    # ------------------------------------------------------------------

    def holds(self, key_id: str, version: Optional[int] = None) -> bool:
        """Whether this member holds ``key_id`` (at ``version`` if given)."""
        key = self._keys.get(key_id)
        if key is None:
            return False
        return version is None or key.version == version

    def key(self, key_id: str) -> KeyMaterial:
        """The member's current copy of ``key_id``."""
        try:
            return self._keys[key_id]
        except KeyError:
            raise KeyError(
                f"member {self.member_id!r} does not hold key {key_id!r}"
            ) from None

    def held_versions(self) -> Dict[str, int]:
        """Map of key_id -> version for everything currently held.

        With :meth:`WrapIndex.closure
        <repro.crypto.wrap.WrapIndex.closure>` it derives which packets this
        receiver is interested in (the rekey payload's *sparseness
        property*, Section 2.2 of the paper): the reference for the rows
        the server names it in.
        """
        return {key_id: key.version for key_id, key in self._keys.items()}

    def key_count(self) -> int:
        """Number of distinct keys held (path length + individual key)."""
        return len(self._keys)

    # ------------------------------------------------------------------
    # rekey processing
    # ------------------------------------------------------------------

    def install(self, key: KeyMaterial) -> None:
        """Install a key received over the registration (unicast) channel.

        Refuses version downgrades, which would re-open a closed epoch.
        """
        current = self._keys.get(key.key_id)
        if current is not None and current.version > key.version:
            return
        self._keys[key.key_id] = key

    def absorb(
        self,
        encrypted_keys: Iterable[EncryptedKey],
        index: Optional[WrapIndex] = None,
    ) -> List[KeyMaterial]:
        """Unwrap everything reachable from the currently held keys.

        Runs a single indexed bottom-up pass: starting from the held key
        ids, each newly learned payload key is pushed back onto the work
        list so wraps chained off it (rekey messages wrap a parent's fresh
        key under a child's fresh key) unwrap in turn — without the member
        knowing the tree shape, and without ever scanning wraps addressed
        to other receivers.  Per-message work is O(tree depth), not
        O(message size).

        Parameters
        ----------
        encrypted_keys:
            The rekey payload (or any subset of one).
        index:
            A prebuilt :class:`~repro.crypto.wrap.WrapIndex` over exactly
            ``encrypted_keys``.  Callers delivering one payload to many
            members (the simulator, the conformance harness) pass the
            message's shared index so it is built once per message instead
            of once per member — and so each wrap is decrypted once per
            message: a wrap another receiver of the same index already
            opened *with the identical secret* is taken from the index's
            opened-wrap table instead of being decrypted again, after the
            same version and novelty checks.  Without an index the member
            builds a private one and opens everything itself, as a
            deployed receiver does; what is learned, and in which order,
            is the same either way.

        Returns the keys newly learned, in the order learned.
        """
        if index is None:
            index = WrapIndex(encrypted_keys)
        keys = self._keys
        heads, chain = index.heads, index.chain
        batch = index.batch
        wrapping_versions = batch.wrapping_versions
        payload_ids = batch.payload_ids
        payload_versions = batch.payload_versions
        opened = index.opened
        opened_with = index.opened_with
        learned: List[KeyMaterial] = []
        examined = shared = 0
        # Only held keys that something in this payload is wrapped under.
        frontier = [key_id for key_id in keys if key_id in heads]
        while frontier:
            key_id = frontier.pop()
            wrapping = keys[key_id]
            wrapping_version = wrapping.version
            secret = wrapping.secret
            next_row = heads[key_id]
            while next_row >= 0:
                row, next_row = next_row, chain[next_row]
                examined += 1
                if wrapping_versions[row] != wrapping_version:
                    continue
                current = keys.get(payload_ids[row])
                if current is not None and current.version >= payload_versions[row]:
                    continue
                # Same ciphertext, same secret: the decrypt another
                # receiver of this index already ran is this one's too.
                payload = opened.get(row)
                if payload is not None and (
                    opened_with[row] is secret
                    or compare_digest(opened_with[row], secret)
                ):
                    shared += 1
                else:
                    try:
                        payload = batch.unwrap(row, wrapping)
                    except (AuthenticationError, ValueError):
                        continue
                    opened[row] = payload
                    opened_with[row] = secret
                payload_id = payload.key_id
                keys[payload_id] = payload
                learned.append(payload)
                # The learned key may itself wrap further keys — and may
                # upgrade a version we already tried under — so requeue it.
                if payload_id in heads:
                    frontier.append(payload_id)
        if examined:
            obs_metrics.inc("member.wraps_examined", examined)
        if learned:
            obs_metrics.inc("member.keys_learned", len(learned))
        if shared:
            obs_metrics.inc("member.unwraps_shared", shared)
        return learned

    def apply_advances(self, advanced) -> List[KeyMaterial]:
        """Apply ELK/LKH+ one-way advances: ``(key_id, new_version)`` pairs.

        For every held key behind the announced version, compute
        ``K_{v+1} = H(K_v)`` as many times as needed — a member that
        missed earlier advance announcements catches up along the hash
        chain for free (a property the random-refresh scheme lacks).
        """
        refreshed: List[KeyMaterial] = []
        for key_id, version in advanced:
            current = self._keys.get(key_id)
            if current is None or current.version >= version:
                continue
            while current.version < version:
                current = current.advance()
            self._keys[key_id] = current
            refreshed.append(current)
        return refreshed

    def process_rekey(self, message: RekeyMessage) -> List[KeyMaterial]:
        """Absorb a full rekey broadcast; returns the keys newly learned.

        One-way advances apply first (they are free and may unlock wraps
        expressed against the advanced versions), then the wrapped keys —
        resolved through the message's shared positional index, so many
        members processing the same broadcast build it only once.
        """
        learned = self.apply_advances(message.advanced)
        learned.extend(self.absorb(message.encrypted_keys, index=message.index()))
        return learned

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------

    def decrypt_data(self, group_key_id: str, nonce: bytes, blob: bytes) -> bytes:
        """Decrypt application traffic protected by the group key.

        Raises
        ------
        KeyError
            If this member does not hold the group key at all.
        repro.crypto.AuthenticationError
            If the held version is stale (evicted member) or wrong.
        """
        key = self.key(group_key_id)
        return decrypt(key.secret, nonce, blob)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Member {self.member_id!r} keys={len(self._keys)}>"
