"""Fig. 20: array-topology sensitivity (aspect ratio, size, #AODs).

Paper shapes asserted:
(a) near-square arrays minimize movement distance on near-full arrays;
(b) growing square arrays lengthen moves (fidelity drops at fixed workload);
(c) more AODs reduce the 2Q gate count.
"""

from conftest import full_scale

from repro.experiments import run_array_size, run_aspect_ratio, run_num_aods
from repro.generators import qaoa_regular, qsim_random


def _benchmarks():
    if full_scale():
        from repro.experiments.fig20 import default_benchmarks

        return default_benchmarks()
    qsim = qsim_random(40, seed=40)
    qsim.name = "QSim-40Q"
    qaoa = qaoa_regular(40, 5, seed=40)
    qaoa.name = "QAOA-40Q"
    return [qsim, qaoa]


def _rows(points):
    return [
        {
            "config": p.label,
            "benchmark": p.benchmark,
            "2q": p.metrics.num_2q_gates,
            "depth": p.metrics.depth,
            "fidelity": round(p.metrics.total_fidelity, 4),
            "avg_move_um": round(p.metrics.extras["avg_move_distance_m"] * 1e6, 1),
            "exec_ms": round(p.metrics.execution_seconds * 1e3, 2),
        }
        for p in points
    ]


def test_fig20a_aspect_ratio(record_rows):
    shapes = (
        [(1, 48), (2, 24), (4, 12), (7, 7), (12, 4), (24, 2), (48, 1)]
        if full_scale()
        else [(1, 16), (2, 8), (4, 4)]
    )
    points = run_aspect_ratio(shapes=shapes, benchmarks=_benchmarks())
    record_rows("fig20a_aspect_ratio", _rows(points))
    extreme = [p for p in points if p.label == f"1x{shapes[0][1]}"]
    square = [p for p in points if p.label == f"{shapes[-1 if not full_scale() else 3][0]}x{shapes[-1 if not full_scale() else 3][1]}"]
    for e, s in zip(extreme, square):
        assert (
            s.metrics.extras["avg_move_distance_m"]
            <= e.metrics.extras["avg_move_distance_m"]
        )


def test_fig20b_array_size(record_rows):
    sides = [7, 10, 14, 17, 20] if full_scale() else [7, 14]
    points = run_array_size(sides=sides, benchmarks=_benchmarks())
    record_rows("fig20b_array_size", _rows(points))
    small = [p for p in points if p.label == f"{sides[0]}x{sides[0]}"]
    large = [p for p in points if p.label == f"{sides[-1]}x{sides[-1]}"]
    # larger arrays -> longer moves on the same workload
    assert sum(p.metrics.extras["avg_move_distance_m"] for p in large) >= sum(
        p.metrics.extras["avg_move_distance_m"] for p in small
    )


def test_fig20c_num_aods(record_rows):
    counts = [1, 2, 3, 4, 5, 6, 7] if full_scale() else [1, 2, 4]
    points = run_num_aods(aod_counts=counts, benchmarks=_benchmarks())
    record_rows("fig20c_num_aods", _rows(points))
    one = [p for p in points if p.label == f"{counts[0]} AODs"]
    many = [p for p in points if p.label == f"{counts[-1]} AODs"]
    assert sum(p.metrics.num_2q_gates for p in many) <= sum(
        p.metrics.num_2q_gates for p in one
    )
