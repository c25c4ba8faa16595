"""Fig. 17: QSim sweep over qubit number x non-I Pauli probability.

Paper insight: higher non-I probability (less locality) and more qubits
both increase Atomique's advantage.
"""

from conftest import full_scale

from repro.experiments import run_qsim_sweep


def _grid():
    if full_scale():
        return dict(
            qubit_numbers=[10, 20, 40, 60, 80, 100],
            non_identity_probs=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7],
        )
    return dict(qubit_numbers=[10, 24, 40], non_identity_probs=[0.2, 0.5])


def test_fig17_qsim_sweep(record_rows):
    cells = run_qsim_sweep(**_grid())
    rows = [
        {
            "qubits": c.x,
            "p_non_I": c.y,
            "atomique_2q": c.metrics["Atomique"].num_2q_gates,
            "atomique_F": round(c.metrics["Atomique"].total_fidelity, 4),
            "improv_vs_rect": round(c.fidelity_improvement("FAA-Rectangular"), 2),
            "improv_vs_tri": round(c.fidelity_improvement("FAA-Triangular"), 2),
        }
        for c in cells
    ]
    record_rows("fig17_qsim_sweep", rows)

    ns = sorted({c.x for c in cells})
    ps = sorted({c.y for c in cells})
    small = next(c for c in cells if c.x == ns[0] and c.y == ps[-1])
    large = next(c for c in cells if c.x == ns[-1] and c.y == ps[-1])
    assert large.fidelity_improvement("FAA-Rectangular") > small.fidelity_improvement(
        "FAA-Rectangular"
    )
