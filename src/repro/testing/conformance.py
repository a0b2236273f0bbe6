"""The cross-scheme conformance battery.

One entry point, :func:`run_conformance`, replays the standard scenario
corpus through a :class:`~repro.testing.harness.ConformanceHarness` for a
given server factory, supplying whatever join attributes the scheme
requires.  :data:`SCHEME_FACTORIES` enumerates every scheme in the
repository so test suites (and ``python -m repro selfcheck``) can sweep
all of them with one parametrization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.server.partitioned import PartitionedServer
from repro.testing.harness import ConformanceHarness
from repro.testing.scenario import Scenario, standard_scenarios

S_PERIOD = 300.0
"""``Ts`` used by the battery's two-partition factories; the standard
scenario corpus's ``t+`` ticks are sized to trigger migrations at this
period."""


def _deterministic_class(member_id: str) -> str:
    # Stable split so PT runs are replayable: ids hash to Cs or Cl.
    return "Cl" if sum(member_id.encode()) % 2 else "Cs"


def _deterministic_loss(member_id: str) -> float:
    # Three rates, so a three-class server fills every one of its trees.
    return (0.02, 0.10, 0.20)[sum(member_id.encode()) % 3]


def default_join_attributes(member_id: str) -> Dict[str, object]:
    """Scheme-agnostic attribute bundle; filtered per scheme at run time."""
    return {
        "member_class": _deterministic_class(member_id),
        "loss_rate": _deterministic_loss(member_id),
    }


@dataclass(frozen=True)
class SchemeSpec:
    """One scheme the battery knows how to drive."""

    name: str
    factory: Callable[[], PartitionedServer]
    #: Join attributes this scheme's ``join()`` accepts.
    attributes: tuple

    @classmethod
    def of(
        cls, name: str, factory: Callable[[], PartitionedServer]
    ) -> "SchemeSpec":
        """A spec whose ``attributes`` are the ones the server itself names."""
        return cls(name, factory, tuple(factory().join_attributes))


def scheme_specs() -> List[SchemeSpec]:
    """Every key-server scheme in the repository, battery-ready."""
    from repro.server.losshomog import LossHomogenizedServer
    from repro.server.onetree import OneTreeServer
    from repro.server.twopartition import TwoPartitionServer

    factories = {
        "one-keytree": lambda: OneTreeServer(degree=4),
        "one-keytree-owf": lambda: OneTreeServer(degree=4, join_refresh="owf"),
        "qt": lambda: TwoPartitionServer(mode="qt", s_period=S_PERIOD),
        "tt": lambda: TwoPartitionServer(mode="tt", s_period=S_PERIOD),
        "pt": lambda: TwoPartitionServer(mode="pt"),
        "loss-homogenized": lambda: LossHomogenizedServer(class_rates=(0.20, 0.02)),
        "loss-random": lambda: LossHomogenizedServer(
            class_rates=(0.20, 0.02), placement="random"
        ),
        # The many-partition case: three trees under one DEK.
        "loss-3-trees": lambda: LossHomogenizedServer(
            class_rates=(0.20, 0.10, 0.02)
        ),
    }
    return [SchemeSpec.of(name, factory) for name, factory in factories.items()]


SCHEME_FACTORIES: Dict[str, SchemeSpec] = {spec.name: spec for spec in scheme_specs()}


def run_conformance(
    spec: SchemeSpec,
    scenarios: Optional[Sequence[Scenario]] = None,
    *,
    structural_checks: bool = True,
) -> Dict[str, ConformanceHarness]:
    """Replay ``scenarios`` (default: the standard corpus) against ``spec``.

    A fresh server and harness are built per scenario.  Returns the
    finished harness per scenario name so callers can assert on costs;
    any invariant failure raises
    :class:`~repro.testing.invariants.InvariantViolation` naming the
    scenario in its message.
    """
    from repro.testing.invariants import InvariantViolation

    if scenarios is None:
        scenarios = standard_scenarios(s_period=S_PERIOD)
    finished: Dict[str, ConformanceHarness] = {}
    for scenario in scenarios:
        harness = ConformanceHarness(
            spec.factory(), structural_checks=structural_checks
        )
        try:
            scenario.run(
                harness,
                attribute_filter=spec.attributes,
                join_defaults=default_join_attributes,
            )
        except InvariantViolation as exc:
            raise InvariantViolation(
                f"[scheme {spec.name!r}, scenario {scenario.name!r}] {exc}"
            ) from exc
        finished[scenario.name] = harness
    return finished
