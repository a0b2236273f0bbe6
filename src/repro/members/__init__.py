"""Group members: key state machines and behaviour models.

* :class:`Member` — the receiver-side key state machine: holds the keys on
  its key-tree path, absorbs :class:`~repro.crypto.wrap.RekeyMessage`
  broadcasts, and exposes exactly what a receiver can decrypt (used by the
  tests to prove forward/backward confidentiality end-to-end).
* :mod:`repro.members.durations` — membership-duration models: exponential,
  the paper's two-class exponential mixture (Section 3.3.1), and a Zipf
  option (both fits reported by Almeroth–Ammar [AA97]).
* :mod:`repro.members.trace` — synthetic MBone-style session traces
  (substitute for the proprietary MBone measurement data, see DESIGN.md §5).
* :mod:`repro.members.population` — loss-class populations for Section 4.
"""

from repro.members.durations import (
    ExponentialDuration,
    TwoClassDuration,
    ZipfDuration,
)
from repro.members.member import Member
from repro.members.population import LossClass, LossPopulation
from repro.members.trace import MBoneTraceGenerator, MembershipRecord, trace_statistics

__all__ = [
    "ExponentialDuration",
    "LossClass",
    "LossPopulation",
    "MBoneTraceGenerator",
    "Member",
    "MembershipRecord",
    "TwoClassDuration",
    "ZipfDuration",
    "trace_statistics",
]
