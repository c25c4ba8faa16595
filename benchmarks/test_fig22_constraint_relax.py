"""Fig. 22: relaxing each movement constraint.

Paper shape: the 2Q count never changes (constraints only affect
scheduling); depth and execution time drop when constraints are relaxed,
with constraint 3 (overlap) yielding the biggest win; movement distance
tends to rise with the added freedom.
"""

from conftest import full_scale

from repro.analysis import geometric_mean
from repro.experiments import run_constraint_relaxation
from repro.generators import phase_code, qaoa_random, qsim_random


def _benchmarks():
    if full_scale():
        from repro.experiments.fig21_22 import default_relaxation_benchmarks

        return default_relaxation_benchmarks()
    qaoa = qaoa_random(40, edge_prob=0.1, seed=40)
    qaoa.name = "QAOA-rand-40"
    qsim = qsim_random(40, seed=40)
    qsim.name = "QSim-rand-40"
    pc = phase_code(60, rounds=2)
    pc.name = "Phase-Code-60"
    return [qaoa, qsim, pc]


def test_fig22_constraint_relaxation(record_rows):
    points = run_constraint_relaxation(_benchmarks())
    rows = [
        {
            "relaxation": p.relaxation,
            "benchmark": p.benchmark,
            "2q": p.metrics.num_2q_gates,
            "depth": p.metrics.depth,
            "exec_ms": round(p.metrics.execution_seconds * 1e3, 2),
            "move_dist_um": round(
                p.metrics.extras["avg_move_distance_m"] * 1e6, 1
            ),
        }
        for p in points
    ]
    record_rows("fig22_constraint_relax", rows)

    # 2Q count is invariant per benchmark.
    per_bench: dict[str, set[int]] = {}
    for p in points:
        per_bench.setdefault(p.benchmark, set()).add(p.metrics.num_2q_gates)
    for counts in per_bench.values():
        assert len(counts) == 1

    def gdepth(label):
        return geometric_mean(
            [p.metrics.depth for p in points if p.relaxation == label]
        )

    base = gdepth("All Constraints")
    c3 = gdepth("Relax C3 (overlap)")
    assert c3 <= base  # relaxing overlap helps depth the most (paper)
    for label in (
        "Relax C1 (individual addressing)",
        "Relax C2 (ordering)",
    ):
        assert gdepth(label) <= base + 1
