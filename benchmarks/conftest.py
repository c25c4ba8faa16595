"""Shared helpers for the per-figure benchmark harnesses.

Every benchmark regenerates one table or figure of the paper and writes the
rows it produced to ``benchmarks/results/<name>.txt`` so the numbers can be
compared against the paper after a run (see EXPERIMENTS.md).  Those tracked
tables hold only deterministic columns, so a run leaves them byte-identical;
wall-clock columns go to the untracked ``benchmarks/results/timing/``.

Set ``ATOMIQUE_FULL=1`` to run the full paper-scale workloads; the default
is a scaled-down grid that preserves every qualitative shape while keeping
the whole suite to a few minutes.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.analysis import format_table

RESULTS_DIR = Path(__file__).parent / "results"
#: Full tables, wall-clock columns included (gitignored: they vary per run).
TIMING_DIR = RESULTS_DIR / "timing"
#: Columns that hold wall-clock measurements.
TIMING_COLUMNS = frozenset({"compile_s"})


def full_scale() -> bool:
    """True when the paper-scale configuration was requested."""
    return os.environ.get("ATOMIQUE_FULL", "0") == "1"


@pytest.fixture
def record_rows():
    """Write a list of row-dicts as an aligned table and echo it.

    The tracked ``results/<name>.txt`` drops the :data:`TIMING_COLUMNS`;
    a table with any of them is also written whole to ``results/timing/``.
    ``timing=True`` marks a table that is all wall-clock: it is written
    only there.
    """

    def _record(name: str, rows: list[dict[str, object]], timing: bool = False) -> str:
        table = format_table(rows)
        if timing or any(TIMING_COLUMNS & row.keys() for row in rows):
            TIMING_DIR.mkdir(parents=True, exist_ok=True)
            (TIMING_DIR / f"{name}.txt").write_text(table + "\n")
        if not timing:
            stable = [
                {k: v for k, v in row.items() if k not in TIMING_COLUMNS}
                for row in rows
            ]
            (RESULTS_DIR / f"{name}.txt").write_text(format_table(stable) + "\n")
        print(f"\n=== {name} ===\n{table}")
        return table

    return _record
