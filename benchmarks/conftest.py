"""Shared helpers for the per-figure benchmark harnesses.

Every benchmark regenerates one table or figure of the paper and writes the
rows it produced to ``benchmarks/results/<name>.txt`` so the numbers can be
compared against the paper after a run (see EXPERIMENTS.md).  Those tracked
tables hold only deterministic columns, and at the default scale they are an
oracle: a run whose table differs from the tracked bytes fails (and leaves
the tracked file alone).  To re-baseline after an intended change, delete the
file and rerun.  Wall-clock columns go to the untracked
``benchmarks/results/timing/``.

Set ``ATOMIQUE_FULL=1`` to run the full paper-scale workloads; the default
is a scaled-down grid that preserves every qualitative shape while keeping
the whole suite to a few minutes.
"""

from __future__ import annotations

import difflib
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
    only there.  At the default scale an existing tracked table is not
    rewritten but compared: any byte of drift fails the test.
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
            text = format_table(stable) + "\n"
            path = RESULTS_DIR / f"{name}.txt"
            if path.exists() and not full_scale():
                tracked = path.read_bytes().decode()
                assert text == tracked, _drift(name, tracked, text)
            else:
                path.write_text(text)
        print(f"\n=== {name} ===\n{table}")
        return table

    return _record


def _drift(name: str, tracked: str, fresh: str, max_lines: int = 40) -> str:
    diff = list(
        difflib.unified_diff(
            tracked.splitlines(),
            fresh.splitlines(),
            f"tracked results/{name}.txt",
            "this run",
            lineterm="",
        )
    )
    shown = "\n".join(diff[:max_lines])
    if len(diff) > max_lines:
        shown += f"\n... ({len(diff) - max_lines} more diff lines)"
    return f"table {name} drifted from its tracked copy:\n{shown}"
