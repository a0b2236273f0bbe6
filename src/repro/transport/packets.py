"""Rekey packets and key-to-packet assignment orders."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.obs import metrics as obs_metrics


@dataclass(frozen=True)
class KeyPacket:
    """One multicast packet carrying (indices of) encrypted keys.

    Attributes
    ----------
    seqno:
        Per-session packet sequence number.
    key_indices:
        Indices into the transport task's key list.  A key index may
        appear in several packets (proactive replication).
    block:
        FEC block id when the packet belongs to an FEC block.
    is_parity:
        True for FEC parity packets (they carry no key indices; any
        ``k`` packets of a block recover the whole block).
    """

    seqno: int
    key_indices: Tuple[int, ...]
    block: Optional[int] = None
    is_parity: bool = False

    @property
    def key_count(self) -> int:
        return len(self.key_indices)


def pack_indices(
    indices: Sequence[int],
    per_packet: int,
    start_seqno: int = 0,
    block: Optional[int] = None,
) -> List[KeyPacket]:
    """Pack key indices into packets of at most ``per_packet`` keys."""
    if per_packet < 1:
        raise ValueError("per_packet must be positive")
    packets = []
    seqno = start_seqno
    for offset in range(0, len(indices), per_packet):
        packets.append(
            KeyPacket(
                seqno=seqno,
                key_indices=tuple(indices[offset : offset + per_packet]),
                block=block,
            )
        )
        seqno += 1
    if packets:
        obs_metrics.inc("transport.packets_packed", len(packets))
        obs_metrics.inc("transport.keys_packed", len(indices))
    return packets


def order_breadth_first(
    indices: Sequence[int], audiences: Dict[int, Set[str]]
) -> List[int]:
    """WKA's breadth-first order: widest-audience keys first.

    Keys near the key-tree root are needed by the most receivers; packing
    them together front-loads the replicated, most valuable packets.
    Every index must have an entry in ``audiences``.
    """
    return sorted(indices, key=lambda i: (-len(audiences[i]), i))


def order_depth_first(indices: Sequence[int]) -> List[int]:
    """WKA's depth-first order: message order, which the LKH rekeyer emits
    deepest-subtree-first — keys of one subtree stay adjacent, so a
    receiver's interest concentrates in few packets."""
    return list(indices)
