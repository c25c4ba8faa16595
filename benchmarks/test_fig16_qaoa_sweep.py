"""Fig. 16: QAOA sweep over qubit number x regular-graph degree.

Paper insight: the less local the problem (higher degree) and the larger the
circuit, the bigger Atomique's fidelity advantage over the FAAs.
"""

from conftest import full_scale

from repro.experiments import run_qaoa_sweep


def _grid():
    if full_scale():
        return dict(qubit_numbers=[10, 20, 40, 60, 80, 100], degrees=[3, 4, 5, 6, 7])
    return dict(qubit_numbers=[10, 24, 40], degrees=[3, 5])


def test_fig16_qaoa_sweep(record_rows):
    cells = run_qaoa_sweep(**_grid())
    rows = [
        {
            "qubits": c.x,
            "degree": c.y,
            "atomique_2q": c.metrics["Atomique"].num_2q_gates,
            "atomique_F": round(c.metrics["Atomique"].total_fidelity, 4),
            "improv_vs_rect": round(c.fidelity_improvement("FAA-Rectangular"), 2),
            "improv_vs_tri": round(c.fidelity_improvement("FAA-Triangular"), 2),
        }
        for c in cells
    ]
    record_rows("fig16_qaoa_sweep", rows)

    # Larger QAOA instances favour Atomique more.
    ns = sorted({c.x for c in cells})
    d = sorted({c.y for c in cells})[-1]
    small = next(c for c in cells if c.x == ns[0] and c.y == d)
    large = next(c for c in cells if c.x == ns[-1] and c.y == d)
    assert large.fidelity_improvement("FAA-Rectangular") > small.fidelity_improvement(
        "FAA-Rectangular"
    )
