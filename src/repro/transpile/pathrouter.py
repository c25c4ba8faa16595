"""Greedy shortest-path SWAP router (pre-SABRE generation).

Routes each front-layer two-qubit gate as soon as it is reached by swapping
one endpoint along a BFS shortest path until the pair is adjacent — no
lookahead, no extended set, no layout search.  This models the routing
quality of earlier compilers such as Baker et al.'s long-range FAA compiler
(the paper runs Baker's open-source implementation, which predates SABRE's
heuristics).
"""

from __future__ import annotations

from ..circuits.circuit import QuantumCircuit
from ..circuits.dag import DAGCircuit
from ..circuits.gates import Gate
from ..hardware.coupling import CouplingMap
from .layout import Layout, dense_layout
from .sabre import SabreResult


def path_route(
    circuit: QuantumCircuit,
    coupling: CouplingMap,
    initial_layout: Layout | None = None,
) -> SabreResult:
    """Route *circuit* by swapping along shortest paths, gate by gate."""
    if circuit.num_qubits > coupling.num_qubits:
        raise ValueError(
            f"circuit has {circuit.num_qubits} qubits, device only "
            f"{coupling.num_qubits}"
        )
    layout = (
        initial_layout or dense_layout(circuit.num_qubits, coupling)
    ).copy()
    init_layout = layout.copy()
    dag = DAGCircuit(circuit)
    out = QuantumCircuit(coupling.num_qubits, circuit.name)
    num_swaps = 0
    swap_indices: list[int] = []

    while not dag.done:
        for idx in sorted(dag.front_layer):
            g = dag.gates[idx]
            if not g.is_two_qubit:
                out.append(
                    Gate.trusted(
                        g.name, tuple(layout.physical(q) for q in g.qubits), g.params
                    )
                )
                dag.execute(idx)
                break
            pa, pb = layout.physical(g.qubits[0]), layout.physical(g.qubits[1])
            if not coupling.is_adjacent(pa, pb):
                path = coupling.shortest_path(pa, pb)
                # Swap the first endpoint down the path until adjacent.
                for hop in path[1:-1]:
                    out.append(Gate.trusted("swap", (pa, hop)))
                    swap_indices.append(len(out) - 1)
                    num_swaps += 1
                    layout.swap_physical(pa, hop)
                    pa = hop
            out.append(Gate.trusted(g.name, (pa, pb), g.params))
            dag.execute(idx)
            break

    return SabreResult(
        circuit=out,
        initial_layout=init_layout,
        final_layout=layout,
        num_swaps=num_swaps,
        swap_gate_indices=swap_indices,
    )
