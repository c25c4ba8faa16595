"""Fig. 19: Atomique vs Q-Pilot on QAOA and QSim.

Paper shape: Q-Pilot's flying ancillas reach lower depth, but spend 2-3x the
two-qubit gates, so Atomique keeps the higher overall fidelity (GMean 0.25
vs 0.17 in the paper).
"""

from conftest import full_scale

from repro.analysis import geometric_mean
from repro.experiments import run_qpilot_comparison


def test_fig19_qpilot_comparison(record_rows):
    results = run_qpilot_comparison(include_large=full_scale())
    rows = [m.row() for ms in results.values() for m in ms]
    record_rows("fig19_qpilot", rows)

    atom, qp = results["Atomique"], results["Q-Pilot"]
    # Q-Pilot wins depth on (nearly) every workload.
    depth_wins = sum(1 for a, q in zip(atom, qp) if q.depth <= a.depth)
    assert depth_wins >= len(atom) - 1
    # but pays >= 1.5x the 2Q gates on every workload ...
    for a, q in zip(atom, qp):
        assert q.num_2q_gates >= 1.5 * a.num_2q_gates
    # ... and Atomique keeps the better geometric-mean fidelity.
    f_atom = geometric_mean([m.total_fidelity for m in atom], floor=1e-6)
    f_qp = geometric_mean([m.total_fidelity for m in qp], floor=1e-6)
    assert f_atom > f_qp
