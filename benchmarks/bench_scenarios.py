"""pytest-benchmark view of the scenario table (``scenarios.py``): one
benchmark per row, every family at its first full size::

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only

``run_all.py`` times the same rows into a trajectory file, across all
full sizes with DNF budgets.  Building the rows builds every family's
inputs, XMark scale 0.5 included, at collection time.
"""

import pytest

from scenarios import FAMILIES

ROWS = [row for family in FAMILIES for row in family.at(family.full[0])]


@pytest.mark.parametrize(
    "row", ROWS, ids=[f"{row.scenario}[{row.kernel}]" for row in ROWS])
def test_scenario(benchmark, row):
    benchmark(row.fn)
