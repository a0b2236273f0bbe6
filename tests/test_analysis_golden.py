"""Replay ``tests/golden/analysis_costs.json``: every analytic scheme cost,
exactly.

The fixture pins the Section 3 schemes in counted keys and the Section 4
trees over WKA-BKR and proactive FEC on a grid of edge rows (see
``tests/golden/generate_analysis_golden.py``).  Each row must price to
the recorded float with ``==``, not ``approx``: a refactor of the cost
model is held to the same bits.
"""

import json

import pytest

from tests.helpers import load_golden_generator

_generator = load_golden_generator("generate_analysis_golden")
ROWS = json.loads(_generator.FIXTURE.read_text())["rows"]


def test_fixture_covers_the_grid():
    recorded = [{k: v for k, v in row.items() if k != "value"} for row in ROWS]
    assert recorded == json.loads(json.dumps(_generator.grid()))


@pytest.mark.parametrize(
    "family", sorted({(row["transport"], row["scheme"]) for row in ROWS}),
    ids="-".join,
)
def test_rows_replay_exactly(family):
    rows = [row for row in ROWS if (row["transport"], row["scheme"]) == family]
    assert rows
    for row in rows:
        assert _generator.evaluate(row) == row["value"], row
