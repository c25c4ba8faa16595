"""Basis translation and peephole simplification.

The RAA native gate set is ``{CZ, U3}`` (Sec. II: Rydberg CZ + Raman 1Q).
FAA and superconducting backends use ``{CX, U3}``.  This module lowers every
supported gate to either basis and provides a 1Q-merge peephole that fuses
runs of adjacent single-qubit gates into one ``u3`` — the bulk of what
"Qiskit optimization level 3" contributes to the paper's gate counts.
"""

from __future__ import annotations

import math

import numpy as np

from .circuit import QuantumCircuit
from .gates import Gate, GateError, one_qubit_matrix

#: Lowering and the peepholes only rebuild gates from the fields of gates
#: that are already valid, so they skip ``Gate`` validation.
_trusted = Gate.trusted


def u3_params_from_matrix(m: np.ndarray) -> tuple[float, float, float]:
    """Recover ``(theta, phi, lam)`` such that ``U3(theta,phi,lam) ~ m``.

    The result is exact up to global phase.
    """
    # Normalize global phase so that m[0,0] is real non-negative.
    a = abs(m[0, 0])
    theta = 2.0 * math.atan2(abs(m[1, 0]), a)
    if abs(m[1, 0]) < 1e-12 and a < 1e-12:  # pragma: no cover - degenerate
        return 0.0, 0.0, 0.0
    if a > 1e-12:
        phase = m[0, 0] / a
    else:
        phase = m[1, 0] / abs(m[1, 0])
    mn = m / phase
    if abs(mn[1, 0]) > 1e-12:
        phi = math.atan2(mn[1, 0].imag, mn[1, 0].real)
    else:
        phi = 0.0
    if abs(mn[0, 1]) > 1e-12:
        lam = math.atan2((-mn[0, 1]).imag, (-mn[0, 1]).real)
    else:
        lam = math.atan2(mn[1, 1].imag, mn[1, 1].real) - phi
    return theta, phi, lam


def merge_1q_runs(circuit: QuantumCircuit) -> QuantumCircuit:
    """Fuse maximal runs of adjacent 1Q gates on each wire into single ``u3``.

    Identity results (up to phase) are dropped entirely.
    """
    out = QuantumCircuit(circuit.num_qubits, circuit.name)
    pending: dict[int, np.ndarray] = {}

    def flush(q: int) -> None:
        m = pending.pop(q, None)
        if m is None:
            return
        theta, phi, lam = u3_params_from_matrix(m)
        if abs(theta) < 1e-10 and abs((phi + lam) % (2 * math.pi)) < 1e-10:
            return  # identity up to phase
        out.append(_trusted("u3", (q,), (theta, phi, lam)))

    for g in circuit.gates:
        if g.is_one_qubit:
            q = g.qubits[0]
            m = one_qubit_matrix(g)
            pending[q] = m @ pending.get(q, np.eye(2, dtype=complex))
            continue
        for q in g.qubits:
            flush(q)
        out.append(g)
    for q in sorted(pending):
        flush(q)
    return out


def _lower_gate(g: Gate, basis_2q: str) -> list[Gate]:
    """Lower one gate to ``{basis_2q, u3-family}``; may recurse."""
    if g.is_one_qubit or g.is_directive:
        return [g]

    def h(q: int) -> Gate:
        return _trusted("h", (q,))

    def rz(theta: float, q: int) -> Gate:
        return _trusted("rz", (q,), (theta,))

    name = g.name
    if name == "cx":
        if basis_2q == "cx":
            return [g]
        c, t = g.qubits
        return [h(t), _trusted("cz", (c, t)), h(t)]
    if name == "cz":
        if basis_2q == "cz":
            return [g]
        a, b = g.qubits
        return [h(b), _trusted("cx", (a, b)), h(b)]
    if name == "swap":
        a, b = g.qubits
        inner = [_trusted("cx", (a, b)), _trusted("cx", (b, a)), _trusted("cx", (a, b))]
        return [x for gg in inner for x in _lower_gate(gg, basis_2q)]
    if name == "iswap":
        a, b = g.qubits
        inner = [
            _trusted("s", (a,)),
            _trusted("s", (b,)),
            _trusted("h", (a,)),
            _trusted("cx", (a, b)),
            _trusted("cx", (b, a)),
            _trusted("h", (b,)),
        ]
        return [x for gg in inner for x in _lower_gate(gg, basis_2q)]
    if name == "rzz":
        (theta,) = g.params
        a, b = g.qubits
        inner = [_trusted("cx", (a, b)), rz(theta, b), _trusted("cx", (a, b))]
        return [x for gg in inner for x in _lower_gate(gg, basis_2q)]
    if name == "rxx":
        (theta,) = g.params
        a, b = g.qubits
        inner = (
            [h(a), h(b)]
            + _lower_gate(_trusted("rzz", (a, b), (theta,)), basis_2q)
            + [h(a), h(b)]
        )
        return [x for gg in inner for x in _lower_gate(gg, basis_2q)]
    if name == "ryy":
        (theta,) = g.params
        a, b = g.qubits
        pre = [
            _trusted("rx", (a,), (math.pi / 2,)),
            _trusted("rx", (b,), (math.pi / 2,)),
        ]
        post = [
            _trusted("rx", (a,), (-math.pi / 2,)),
            _trusted("rx", (b,), (-math.pi / 2,)),
        ]
        inner = pre + _lower_gate(_trusted("rzz", (a, b), (theta,)), basis_2q) + post
        return [x for gg in inner for x in _lower_gate(gg, basis_2q)]
    if name == "cp":
        (theta,) = g.params
        a, b = g.qubits
        inner = [
            rz(theta / 2, a),
            rz(theta / 2, b),
            _trusted("cx", (a, b)),
            rz(-theta / 2, b),
            _trusted("cx", (a, b)),
        ]
        return [x for gg in inner for x in _lower_gate(gg, basis_2q)]
    if name == "crz":
        (theta,) = g.params
        a, b = g.qubits
        inner = [
            rz(theta / 2, b),
            _trusted("cx", (a, b)),
            rz(-theta / 2, b),
            _trusted("cx", (a, b)),
        ]
        return [x for gg in inner for x in _lower_gate(gg, basis_2q)]
    if name == "ccz":
        a, b, c = g.qubits
        inner = [h(c), _trusted("ccx", (a, b, c)), h(c)]
        return [x for gg in inner for x in _lower_gate(gg, basis_2q)]
    if name == "ccx":
        a, b, c = g.qubits
        inner = [
            h(c),
            _trusted("cx", (b, c)),
            _trusted("tdg", (c,)),
            _trusted("cx", (a, c)),
            _trusted("t", (c,)),
            _trusted("cx", (b, c)),
            _trusted("tdg", (c,)),
            _trusted("cx", (a, c)),
            _trusted("t", (b,)),
            _trusted("t", (c,)),
            _trusted("cx", (a, b)),
            h(c),
            _trusted("t", (a,)),
            _trusted("tdg", (b,)),
            _trusted("cx", (a, b)),
        ]
        return [x for gg in inner for x in _lower_gate(gg, basis_2q)]
    if name == "cswap":
        a, b, c = g.qubits
        inner = [
            _trusted("cx", (c, b)),
            _trusted("ccx", (a, b, c)),
            _trusted("cx", (c, b)),
        ]
        return [x for gg in inner for x in _lower_gate(gg, basis_2q)]
    raise GateError(f"cannot lower gate {name!r} to basis {basis_2q!r}")


def lower_to_basis(
    circuit: QuantumCircuit, basis_2q: str = "cz", merge_1q: bool = True
) -> QuantumCircuit:
    """Lower *circuit* to ``{basis_2q}`` + single-qubit gates.

    Parameters
    ----------
    basis_2q:
        ``"cz"`` for the RAA native set or ``"cx"`` for FAA/superconducting.
    merge_1q:
        Fuse adjacent 1Q gates into ``u3`` afterwards (default on, matching
        the paper's use of Qiskit optimization level 3).
    """
    if basis_2q not in ("cz", "cx"):
        raise GateError(f"unsupported 2Q basis {basis_2q!r}")
    out = QuantumCircuit(circuit.num_qubits, circuit.name)
    for g in circuit.gates:
        out.extend(_lower_gate(g, basis_2q))
    if merge_1q:
        out = merge_1q_runs(out)
    return out


def lower_to_two_qubit(circuit: QuantumCircuit, merge_1q: bool = True) -> QuantumCircuit:
    """Decompose >=3-qubit gates but keep 1Q/2Q gates atomic.

    This matches the paper's gate accounting: a logical two-qubit gate
    (CX, CZ, RZZ, ...) counts as *one* compiled two-qubit gate and executes
    in one interaction stage; only multi-qubit gates and inserted SWAPs are
    expanded.
    """
    out = QuantumCircuit(circuit.num_qubits, circuit.name)
    for g in circuit.gates:
        if g.num_qubits >= 3 and not g.is_directive:
            out.extend(x for x in _lower_gate(g, "cx"))
        else:
            out.append(g)
    if merge_1q:
        out = merge_1q_runs(out)
    return out


def decompose_swaps(circuit: QuantumCircuit) -> QuantumCircuit:
    """Expand every SWAP into 3 CX (the paper's 'SWAP ~ 3 CZs' accounting)."""
    out = QuantumCircuit(circuit.num_qubits, circuit.name)
    for g in circuit.gates:
        if g.name == "swap":
            a, b = g.qubits
            out.append(_trusted("cx", (a, b)))
            out.append(_trusted("cx", (b, a)))
            out.append(_trusted("cx", (a, b)))
        else:
            out.append(g)
    return out


def cancel_adjacent_2q_pairs(circuit: QuantumCircuit) -> QuantumCircuit:
    """Remove immediately-adjacent identical self-inverse 2Q gates (CX/CZ/SWAP).

    Adjacency is on the DAG: both wires of the second gate must come straight
    from the first gate with nothing in between.
    """
    out: list[Gate] = []
    last_on_wire: dict[int, int] = {}
    for g in circuit.gates:
        if (
            g.name in ("cx", "cz", "swap")
            and all(q in last_on_wire for q in g.qubits)
            and len({last_on_wire[q] for q in g.qubits}) == 1
        ):
            prev_idx = last_on_wire[g.qubits[0]]
            prev = out[prev_idx]
            if prev is not None and prev.name == g.name and set(prev.qubits) == set(g.qubits):
                directed_ok = g.name != "cx" or prev.qubits == g.qubits
                if directed_ok:
                    out[prev_idx] = None  # type: ignore[call-overload]
                    for q in g.qubits:
                        del last_on_wire[q]
                    continue
        idx = len(out)
        out.append(g)
        for q in g.qubits:
            last_on_wire[q] = idx
    result = QuantumCircuit(circuit.num_qubits, circuit.name)
    result.extend(g for g in out if g is not None)
    return result
