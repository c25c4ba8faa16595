"""Fig. 24: overlap rejections when logical qubits approach capacity.

Paper shape: growing the AOD size from 6x6 to 10x10 reduces overlap
(constraint 3) rejections and depth; the effect is application-dependent
(QAOA suffers the most overlaps).
"""

from conftest import full_scale

from repro.experiments import run_overlap_pressure
from repro.generators import phase_code, qaoa_random, qsim_random


def _setup():
    if full_scale():
        from repro.experiments.fig23_24 import default_benchmarks_100q

        return [6, 8, 10], default_benchmarks_100q()
    qaoa = qaoa_random(48, edge_prob=0.1, seed=48)
    qaoa.name = "QAOA-rand-48"
    qsim = qsim_random(48, seed=48)
    qsim.name = "QSim-rand-48"
    pc = phase_code(48, rounds=2)
    pc.name = "Phase-Code-48"
    return [4, 6, 8], [qaoa, qsim, pc]


def test_fig24_overlap_pressure(record_rows):
    sides, benchmarks = _setup()
    points = run_overlap_pressure(sides=sides, benchmarks=benchmarks)
    rows = [
        {
            "config": p.label,
            "benchmark": p.benchmark,
            "2q": p.metrics.num_2q_gates,
            "depth": p.metrics.depth,
            "overlaps": int(p.overlaps),
            "exec_ms": round(p.metrics.execution_seconds * 1e3, 2),
        }
        for p in points
    ]
    record_rows("fig24_overlap", rows)

    tight = [p for p in points if p.label == f"AOD {sides[0]}x{sides[0]}"]
    loose = [p for p in points if p.label == f"AOD {sides[-1]}x{sides[-1]}"]
    assert sum(p.overlaps for p in tight) >= sum(p.overlaps for p in loose)
    # overlap pressure is application-dependent: not all benchmarks equal
    tight_by_bench = {p.benchmark: p.overlaps for p in tight}
    assert len(set(tight_by_bench.values())) > 1
