"""Fig. 23: uniform vs heterogeneous AOD sizes.

Paper shape: varying SLM/AOD dimensions gives the mapper more freedom —
fewer 2Q gates and lower depth/time — at the cost of longer moves.
"""

from conftest import full_scale

from repro.experiments import run_aod_sizes
from repro.generators import phase_code, qaoa_random, qsim_random


def _benchmarks():
    if full_scale():
        from repro.experiments.fig23_24 import default_benchmarks_100q

        return default_benchmarks_100q()
    qaoa = qaoa_random(60, edge_prob=0.07, seed=60)
    qaoa.name = "QAOA-rand-60"
    qsim = qsim_random(60, seed=60)
    qsim.name = "QSim-rand-60"
    pc = phase_code(60, rounds=2)
    pc.name = "Phase-Code-60"
    return [qaoa, qsim, pc]


def test_fig23_aod_sizes(record_rows):
    points = run_aod_sizes(_benchmarks())
    rows = [
        {
            "config": p.label,
            "benchmark": p.benchmark,
            "2q": p.metrics.num_2q_gates,
            "depth": p.metrics.depth,
            "exec_ms": round(p.metrics.execution_seconds * 1e3, 2),
            "move_dist_um": round(p.metrics.extras["avg_move_distance_m"] * 1e6, 1),
        }
        for p in points
    ]
    record_rows("fig23_aod_sizes", rows)

    uniform = [p for p in points if "8x8+8x8" in p.label]
    varied = [p for p in points if "8x8+6x6" in p.label]
    # heterogeneous sizing must not increase total 2Q gates
    assert sum(p.metrics.num_2q_gates for p in varied) <= sum(
        p.metrics.num_2q_gates for p in uniform
    ) * 1.05
