"""Fig. 15: generic-circuit sweep over 2Q-gates-per-qubit x degree.

Paper insights asserted: (1) Atomique excels on high-degree circuits while
low-degree local circuits favour FAA slightly; (2) deeper circuits widen the
fidelity gap.
"""

from conftest import full_scale

from repro.experiments import run_generic_sweep


def _grid():
    if full_scale():
        return dict(
            num_qubits=40,
            gates_per_qubit=[2, 6, 10, 14, 18, 22, 26],
            degrees=[1, 2, 3, 4, 5, 6, 7],
        )
    return dict(num_qubits=24, gates_per_qubit=[4, 12, 20], degrees=[2, 4, 6])


def test_fig15_generic_sweep(record_rows):
    cells = run_generic_sweep(**_grid())
    rows = []
    for cell in cells:
        rows.append(
            {
                "2q_per_q": cell.x,
                "degree": cell.y,
                "atomique_2q": cell.metrics["Atomique"].num_2q_gates,
                "atomique_F": round(cell.metrics["Atomique"].total_fidelity, 4),
                "improv_vs_rect": round(
                    cell.fidelity_improvement("FAA-Rectangular"), 2
                ),
                "improv_vs_tri": round(
                    cell.fidelity_improvement("FAA-Triangular"), 2
                ),
            }
        )
    record_rows("fig15_generic_sweep", rows)

    # Insight 2: the advantage grows with gate volume at high degree.
    degrees = sorted({c.y for c in cells})
    gpqs = sorted({c.x for c in cells})
    hi_deg = degrees[-1]
    shallow = next(c for c in cells if c.y == hi_deg and c.x == gpqs[0])
    deep = next(c for c in cells if c.y == hi_deg and c.x == gpqs[-1])
    assert deep.fidelity_improvement("FAA-Rectangular") > shallow.fidelity_improvement(
        "FAA-Rectangular"
    )
    # Insight 1: at the deepest setting, high degree favours Atomique more
    # than low degree.
    lo_deg_deep = next(c for c in cells if c.y == degrees[0] and c.x == gpqs[-1])
    assert deep.fidelity_improvement("FAA-Rectangular") >= lo_deg_deep.fidelity_improvement(
        "FAA-Rectangular"
    )
