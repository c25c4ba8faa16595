"""QAOA benchmark circuits (Sec. V-A).

Two families, exactly as the paper constructs them:

* ``qaoa_random`` — "randomly placing ZZ gates between all pairs of qubits
  with a probability of 0.5" (probability configurable);
* ``qaoa_regular`` — "ZZ interactions are placed to qubit pairs with an edge
  in the regular graph" for a random d-regular graph.

Each ZZ interaction is an ``rzz(gamma)`` gate; a mixer layer of ``rx(beta)``
follows each cost layer, and an initial Hadamard layer prepares ``|+>^n``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.gates import Gate

if TYPE_CHECKING:  # networkx loads only for the graph-based helpers
    import networkx as nx


def _qaoa_from_edges(
    num_qubits: int,
    edges: list[tuple[int, int]],
    p_layers: int,
    seed: int,
    name: str,
) -> QuantumCircuit:
    """Assemble a p-layer QAOA circuit over *edges*.

    *edges* are distinct in-range ``int`` pairs, so the gates are built
    with :meth:`Gate.trusted`.
    """
    rng = np.random.default_rng(seed)
    circ = QuantumCircuit(num_qubits, name)
    append = circ.append
    gate = Gate.trusted
    for q in range(num_qubits):
        append(gate("h", (q,)))
    for _ in range(p_layers):
        gamma = float(rng.uniform(0, np.pi))
        beta = float(rng.uniform(0, np.pi))
        zz = (2.0 * gamma,)
        for a, b in edges:
            append(gate("rzz", (a, b), zz))
        mix = (2.0 * beta,)
        for q in range(num_qubits):
            append(gate("rx", (q,), mix))
    return circ


def qaoa_random(
    num_qubits: int,
    edge_prob: float = 0.5,
    p_layers: int = 1,
    seed: int | None = 0,
) -> QuantumCircuit:
    """QAOA on an Erdos-Renyi graph (paper's ``QAOA-rand-n``)."""
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(num_qubits) for j in range(i + 1, num_qubits)]
    # One vector draw consumes the stream exactly as one scalar draw per pair.
    keep = (rng.random(len(pairs)) < edge_prob).tolist()
    edges = [pair for pair, k in zip(pairs, keep) if k]
    if not edges:
        edges = [(0, 1)]
    return _qaoa_from_edges(
        num_qubits, edges, p_layers, seed or 0, f"qaoa-rand-{num_qubits}"
    )


def qaoa_regular(
    num_qubits: int,
    degree: int,
    p_layers: int = 1,
    seed: int | None = 0,
) -> QuantumCircuit:
    """QAOA on a random d-regular graph (paper's ``QAOA-regu{d}-n``)."""
    if num_qubits * degree % 2 != 0:
        raise ValueError(
            f"no {degree}-regular graph on {num_qubits} qubits (odd product)"
        )
    if degree >= num_qubits:
        raise ValueError("degree must be < num_qubits")
    import networkx as nx

    graph = nx.random_regular_graph(degree, num_qubits, seed=seed)
    edges = [(min(a, b), max(a, b)) for a, b in graph.edges()]
    return _qaoa_from_edges(
        num_qubits,
        sorted(edges),
        p_layers,
        seed or 0,
        f"qaoa-regu{degree}-{num_qubits}",
    )


def qaoa_interaction_graph(circuit: QuantumCircuit) -> nx.Graph:
    """Recover the ZZ interaction graph from a QAOA circuit (for analysis)."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(circuit.num_qubits))
    for gate in circuit.gates:
        if gate.name == "rzz":
            g.add_edge(*gate.qubits)
    return g
