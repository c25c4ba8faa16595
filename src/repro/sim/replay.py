"""Replay a compiled RAA stage program as an ordinary circuit.

Each stage's Raman pulses and Rydberg gates are appended in stage order;
because gates within a stage act on disjoint qubits and stage order is a
topological order of the transpiled circuit's DAG, the replayed circuit is
unitarily identical to the transpiled circuit — the property
``tests/sim`` verifies end to end with the statevector simulator.
"""

from __future__ import annotations

from ..circuits.circuit import QuantumCircuit
from ..circuits.gates import Gate
from ..core.program import ProgramStore


def program_to_circuit(program: ProgramStore) -> QuantumCircuit:
    """Reconstruct the executed circuit from a stage program.

    Cooling swaps exchange an AOD array with an identically-prepared twin,
    which is the identity at the logical level, so cooling events do not
    contribute gates here.  The program replays straight off its
    pulse/gate columns in stage-order slices.
    """
    circ = QuantumCircuit(program.num_qubits, "replayed")
    s = program
    append = circ.append
    gate = Gate.trusted  # the columns hold the fields of valid gates
    for si in range(s.num_stages):
        for i in range(s.off_raman[si], s.off_raman[si + 1]):
            append(gate(s.raman_name[i], (s.raman_qubit[i],), s.raman_params[i]))
        for i in range(s.off_gate[si], s.off_gate[si + 1]):
            append(gate(s.gate_name[i], (s.gate_a[i], s.gate_b[i]), s.gate_params[i]))
    return circ
