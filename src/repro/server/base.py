"""What a key server hands out: a joiner's registration, a batch's result.

The server itself — the periodic batched-rekeying lifecycle of Section
2.1.1, where membership changes accumulate between rekey points and one
batch operation at the end of the period produces a single rekey payload
— is :class:`~repro.server.partitioned.PartitionedServer`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.crypto.material import KeyMaterial
from repro.crypto.wrap import EncryptedKey, WrapBatch, WrapIndex


@dataclass(frozen=True)
class Registration:
    """What a joiner receives over the out-of-band registration channel.

    Slotted like :class:`KeyMaterial`: the server keeps one per admitted
    member.  It pickles and copies through its constructor.
    """

    __slots__ = ("member_id", "individual_key", "join_time")

    member_id: str
    individual_key: KeyMaterial
    join_time: float

    def __reduce__(self) -> tuple:
        return (Registration, (self.member_id, self.individual_key, self.join_time))


@dataclass
class BatchResult:
    """The outcome of one periodic batch rekeying.

    ``cost`` (the number of encrypted keys) is the paper's bandwidth
    metric; ``breakdown`` attributes it to the server's internal parts
    (e.g. ``{"s-partition": 120, "l-partition": 310, "group-key": 2}``).
    """

    epoch: int
    time: float
    encrypted_keys: WrapBatch = field(default_factory=WrapBatch)
    #: ELK/LKH+ one-way advances members apply locally (no wire bytes).
    advanced: List[tuple] = field(default_factory=list)
    joined: List[str] = field(default_factory=list)
    departed: List[str] = field(default_factory=list)
    migrated: List[str] = field(default_factory=list)
    breakdown: Dict[str, int] = field(default_factory=dict)
    #: Lazily built positional index over ``encrypted_keys`` (derived state).
    _index: Optional[WrapIndex] = field(default=None, repr=False, compare=False)

    @property
    def cost(self) -> int:
        """Total encrypted keys in the batch payload."""
        return len(self.encrypted_keys)

    def extend(self, label: str, keys: Sequence[EncryptedKey]) -> None:
        """Append a component's keys (a batch column by column) and record
        its share in the breakdown.

        The first batch into an empty payload is adopted, not copied: the
        payload *is* that batch from then on, and later components append
        to it.  Callers hand over a batch nothing else keeps (a
        partition's fresh rekey message, a local DEK batch).
        """
        if isinstance(keys, WrapBatch) and not self.encrypted_keys:
            self.encrypted_keys = keys
        else:
            self.encrypted_keys.extend(keys)
        self.breakdown[label] = self.breakdown.get(label, 0) + len(keys)

    def index(self) -> WrapIndex:
        """Shared ``wrapping_id -> rows`` index of the payload.

        Built on first use (and rebuilt if more keys were appended since),
        then reused by every receiver this batch is delivered to.
        """
        index = self._index
        if index is None or index.size != len(self.encrypted_keys):
            index = WrapIndex(self.encrypted_keys)
            self._index = index
        return index
