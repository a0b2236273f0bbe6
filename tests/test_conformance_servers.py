"""The conformance battery: every scheme × every standard scenario.

This is the repository's executable security contract — each cell proves
key consistency, adversarial forward secrecy, backward secrecy, batching
semantics, structural soundness and unicast recoverability for one
(scheme, workload) pair.
"""

import pytest

from repro.obs import metrics as obs_metrics
from repro.testing import (
    SCHEME_FACTORIES,
    ConformanceHarness,
    Scenario,
    default_join_attributes,
    run_conformance,
    scheme_specs,
    standard_scenarios,
)
from repro.testing.conformance import S_PERIOD

from tests.helpers import PrivateIndexHarness

SPECS = scheme_specs()
SCENARIOS = standard_scenarios(s_period=S_PERIOD)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
def test_scheme_passes_scenario(spec, scenario):
    harness = ConformanceHarness(spec.factory())
    scenario.run(
        harness,
        attribute_filter=spec.attributes,
        join_defaults=default_join_attributes,
    )
    assert harness.epochs == sum(1 for op in scenario.ops if op[0] == "rekey")


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_scheme_passes_churn_mix_on_private_indexes(spec):
    """The battery delivers through each payload's shared index, as the
    simulator does; one scenario stays on the path a deployed receiver
    takes, and the shared table leaves the decrypt count per batch alone."""
    scenario = next(s for s in SCENARIOS if s.name == "churn-mix")
    learned = []
    for harness_cls in (PrivateIndexHarness, ConformanceHarness):
        with obs_metrics.collecting() as registry:
            scenario.run(
                harness_cls(spec.factory()),
                attribute_filter=spec.attributes,
                join_defaults=default_join_attributes,
            )
        learned.append(registry.counter_total("member.keys_learned"))
    assert learned[0] == learned[1] > 0


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_run_conformance_sweeps_the_corpus(spec):
    finished = run_conformance(spec)
    assert set(finished) == {s.name for s in SCENARIOS}
    assert all(h.total_cost() > 0 for h in finished.values())


def test_registry_matches_specs():
    assert set(SCHEME_FACTORIES) == {s.name for s in SPECS}
    assert len({s.name for s in SPECS}) == len(SPECS)


def test_migration_scenario_actually_migrates():
    """The corpus must exercise the migration path, not just tolerate it."""
    spec = SCHEME_FACTORIES["tt"]
    harness = ConformanceHarness(spec.factory())
    scenario = next(s for s in SCENARIOS if s.name == "migration-waves")
    scenario.run(harness, attribute_filter=spec.attributes)
    assert any(result.migrated for result in harness.history)


def test_pt_scenario_splits_classes():
    """PT conformance runs place members in both partitions."""
    spec = SCHEME_FACTORIES["pt"]
    server = spec.factory()
    harness = ConformanceHarness(server)
    Scenario.parse("+a@Cs +b@Cl +c@Cs +d@Cl .", name="split").run(
        harness, attribute_filter=spec.attributes
    )
    assert server.s_size == 2 and server.l_size == 2


def test_loss_homogenized_scenario_fills_both_trees():
    spec = SCHEME_FACTORIES["loss-homogenized"]
    server = spec.factory()
    harness = ConformanceHarness(server)
    Scenario.parse("+a@0.18 +b@0.03 +c@0.25 .", name="split").run(
        harness, attribute_filter=spec.attributes
    )
    sizes = server.tree_sizes()
    assert sizes[0.20] == 2 and sizes[0.02] == 1


def test_adversaries_accumulate_and_rotate():
    spec = SCHEME_FACTORIES["one-keytree"]
    harness = ConformanceHarness(spec.factory(), max_adversaries=2)
    Scenario.parse(
        "+a +b +c +d +e . -a . -b . -c . -d .", name="rolling-evictions"
    ).run(harness)
    assert len(harness.adversaries) == 2
    assert [m.member_id for m in harness.adversaries] == ["c", "d"]
