"""Placement policies: who lives in which partition.

Every optimisation in the paper is the same construction — sub-trees
under one group key — and differs only in where a member is put: by age
with S -> L migration (:class:`AgePlacement`, Section 3's QT / TT), by a
class oracle (:class:`ClassPlacement`, PT), by nearest loss class
(:class:`NearestLossPlacement`, Section 4), round-robin
(:class:`RoundRobinPlacement`, the Fig. 6 control) or into the one
partition there is (:class:`SinglePartitionPlacement`, the plain one-keytree
scheme).  ``docs/architecture.md`` has them side by side.

A policy is all the state a :class:`~repro.server.partitioned.PartitionedServer`
keeps about placement besides the partitions themselves: it validates the
join attributes it names in :attr:`~PlacementPolicy.attributes`, remembers
what it decided for joiners not yet admitted, and snapshots itself —
the attributes named in :attr:`~PlacementPolicy.fields` are plain
JSON-compatible data, and they are the whole of
:meth:`~PlacementPolicy.state`.
"""

from __future__ import annotations

import numbers
from copy import deepcopy
from typing import Dict, List, Sequence, Tuple

from repro.members.durations import LONG_CLASS, SHORT_CLASS


def _check_class(member_class: object) -> None:
    if member_class not in (SHORT_CLASS, LONG_CLASS):
        raise ValueError(
            f"member_class must be {SHORT_CLASS!r} or {LONG_CLASS!r}, "
            f"got {member_class!r}"
        )


class PlacementPolicy:
    """Base policy: decide at join time, hand the decision over at admission.

    ``pending`` maps a joiner not yet admitted to the partition index
    chosen for it; policies that decide at admission (by age) or have
    nothing to decide (one partition) leave it empty and override
    :meth:`place`.
    """

    #: Snapshot tag (``state()["name"]``).
    name = ""
    #: Join attributes ``admit`` takes; anything else is a ``TypeError``.
    attributes: Tuple[str, ...] = ()
    #: Instance attributes, in ``state()`` order; a restore sets exactly these.
    fields: Tuple[str, ...] = ("pending",)
    #: Fewest partitions the indices ``place`` and ``migrations`` name need.
    min_partitions = 1

    def __init__(self) -> None:
        self.pending: Dict[str, int] = {}

    def accepts(self, partitions: int) -> bool:
        """Whether this policy can place members among that many partitions."""
        return partitions >= self.min_partitions

    def admit(self, member_id: str) -> None:
        """``join()`` time: validate the attributes, note the decision."""

    def cancel(self, member_id: str) -> None:
        """A joiner left before it was admitted."""
        self.pending.pop(member_id, None)

    def place(self, member_id: str, now: float, partitions: int) -> int:
        """Admission: which of the ``partitions`` the joiner enters."""
        return self.pending.pop(member_id)

    def forget(self, member_id: str) -> None:
        """An admitted member departed."""

    def migrations(self, now: float) -> List[Tuple[str, int, int]]:
        """Members to move this batch, as ``(member_id, from, to)``."""
        return []

    def state(self) -> Dict:
        """JSON-compatible state: the tag and a copy of every declared field."""
        fields = {field: getattr(self, field) for field in self.fields}
        return {"name": self.name, **deepcopy(fields)}


class AgePlacement(PlacementPolicy):
    """QT / TT: enter the S-partition, migrate to L after ``s_period``."""

    name = "by-age"
    attributes = ("member_class",)
    fields = ("pending", "s_period", "entered")
    min_partitions = 2  # S and L; any further ones stay empty

    def __init__(self, s_period: float) -> None:
        if s_period < 0:
            raise ValueError("s_period must be non-negative")
        super().__init__()
        self.s_period = s_period
        #: S-partition resident -> when it entered.
        self.entered: Dict[str, float] = {}

    def admit(self, member_id: str, member_class: object = None) -> None:
        # The class is not used (that is PT); a wrong one is still wrong.
        if member_class is not None:
            _check_class(member_class)

    def place(self, member_id: str, now: float, partitions: int) -> int:
        self.entered[member_id] = now
        return 0

    def forget(self, member_id: str) -> None:
        self.entered.pop(member_id, None)

    def migrations(self, now: float) -> List[Tuple[str, int, int]]:
        ready = sorted(
            member_id
            for member_id, entered in self.entered.items()
            if now - entered >= self.s_period - 1e-9
        )
        for member_id in ready:
            del self.entered[member_id]
        return [(member_id, 0, 1) for member_id in ready]


class ClassPlacement(PlacementPolicy):
    """PT: the server is told each joiner's class; no migrations."""

    name = "class-oracle"
    attributes = ("member_class",)
    min_partitions = 2

    def admit(self, member_id: str, member_class: object = None) -> None:
        _check_class(member_class)
        self.pending[member_id] = 1 if member_class == LONG_CLASS else 0


class _LossClasses(PlacementPolicy):
    """One partition per nominal loss rate, highest rate first."""

    fields = ("pending", "class_rates")

    def __init__(self, class_rates: Sequence[float]) -> None:
        if not class_rates:
            raise ValueError("at least one loss class is required")
        super().__init__()
        self.class_rates = list(class_rates)

    def accepts(self, partitions: int) -> bool:
        return partitions == len(self.class_rates)


class NearestLossPlacement(_LossClasses):
    """Section 4: the class whose nominal rate is nearest the reported one."""

    name = "nearest-loss"
    attributes = ("loss_rate",)

    def admit(self, member_id: str, loss_rate: object = None) -> None:
        if (
            isinstance(loss_rate, bool)  # a Real, but never a measured rate
            or not isinstance(loss_rate, numbers.Real)
            or not 0.0 <= loss_rate <= 1.0
        ):
            raise ValueError(
                "loss-homogenized placement requires a loss_rate in [0, 1] "
                f"at join time, got {loss_rate!r}"
            )
        rates = self.class_rates
        self.pending[member_id] = min(
            range(len(rates)), key=lambda index: abs(rates[index] - loss_rate)
        )


class RoundRobinPlacement(_LossClasses):
    """Fig. 6's control: the loss classes' trees, filled in turn."""

    name = "round-robin"
    fields = ("pending", "class_rates", "next_index")
    next_index = 0  # joiners placed so far

    def admit(self, member_id: str) -> None:
        self.pending[member_id] = self.next_index % len(self.class_rates)
        self.next_index += 1


class SinglePartitionPlacement(PlacementPolicy):
    """One-keytree: one partition, so every member lands in it."""

    name = "hash"  # snapshot tag, kept so existing snapshots load

    def accepts(self, partitions: int) -> bool:
        return partitions == 1

    def place(self, member_id: str, now: float, partitions: int) -> int:
        return 0


POLICIES = {
    policy.name: policy
    for policy in (
        AgePlacement,
        ClassPlacement,
        NearestLossPlacement,
        RoundRobinPlacement,
        SinglePartitionPlacement,
    )
}


#: The JSON type of every policy field, as a restore checks it.
_FIELD_TYPES = dict(
    pending=dict, entered=dict, class_rates=list, s_period=(int, float), next_index=int
)


def policy_from_state(state: Dict) -> PlacementPolicy:
    """Rebuild whichever policy wrote ``state`` (maybe via JSON); no alias
    kept.  A missing field or one of the wrong type is a ``ValueError``."""
    cls = POLICIES.get(state.get("name"))
    if cls is None:
        raise ValueError(f"unknown placement policy {state.get('name')!r}")
    missing = [field for field in cls.fields if field not in state]
    if missing:
        raise ValueError(f"{cls.name} policy state lacks {missing}")
    policy = cls.__new__(cls)
    for field in cls.fields:
        value = state[field]
        if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[field]):
            raise ValueError(
                f"{cls.name} policy {field} cannot be a {type(value).__name__}"
            )
        setattr(policy, field, deepcopy(value))
    return policy
