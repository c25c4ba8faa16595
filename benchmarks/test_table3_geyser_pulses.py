"""Table III: multi-qubit pulse counts, Atomique vs Geyser.

Paper shape: Atomique reduces pulses on every row, by up to ~6.5x, with the
biggest wins on sparse circuits (BV-50/BV-70).
"""

from conftest import full_scale

from repro.experiments import pulse_comparison
from repro.experiments.tables import TABLE3_BENCHMARKS


def _names():
    if full_scale():
        return TABLE3_BENCHMARKS
    return [n for n in TABLE3_BENCHMARKS if n != "QV-32"]


def test_table3_geyser_pulses(record_rows):
    rows = pulse_comparison(_names())
    record_rows("table3_geyser_pulses", rows)
    for row in rows:
        assert row["reduction"] > 1.0, f"{row['benchmark']} lost to Geyser"
    by_name = {r["benchmark"]: r for r in rows}
    # BV rows show the largest reductions (paper: 6.5x / 6.1x)
    bv_red = by_name["BV-50"]["reduction"]
    dense_red = by_name["Mermin-Bell-10"]["reduction"]
    assert bv_red > dense_red * 0.9
