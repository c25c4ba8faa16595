"""The :class:`QuantumCircuit` container.

A circuit is an ordered list of :class:`~repro.circuits.gates.Gate` objects
over ``num_qubits`` wires, with a fluent builder API mirroring the common
Qiskit surface (``circ.h(0)``, ``circ.cx(0, 1)``, ...).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator

from .gates import BARRIER, MEASURE, Gate, GateError


class CircuitError(ValueError):
    """Raised on invalid circuit operations."""


class QuantumCircuit:
    """An ordered gate list over a fixed number of qubits.

    Parameters
    ----------
    num_qubits:
        Number of wires. Gate qubit indices must be in ``[0, num_qubits)``.
    name:
        Optional human-readable label used in reports.
    """

    def __init__(self, num_qubits: int, name: str = "circuit") -> None:
        if num_qubits <= 0:
            raise CircuitError(f"num_qubits must be positive, got {num_qubits}")
        self.num_qubits = int(num_qubits)
        self.name = name
        self._gates: list[Gate] = []

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def __getitem__(self, idx: int) -> Gate:
        return self._gates[idx]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantumCircuit):
            return NotImplemented
        return self.num_qubits == other.num_qubits and self._gates == other._gates

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"QuantumCircuit({self.name!r}, qubits={self.num_qubits}, "
            f"gates={len(self._gates)})"
        )

    @property
    def gates(self) -> list[Gate]:
        """The gate list (treat as read-only)."""
        return self._gates

    # -- mutation ------------------------------------------------------------

    def append(self, gate: Gate) -> "QuantumCircuit":
        """Append *gate*, validating its qubit indices against the register."""
        qubits = gate.qubits
        if qubits and max(qubits) >= self.num_qubits:
            raise CircuitError(
                f"gate {gate} exceeds register of {self.num_qubits} qubits"
            )
        self._gates.append(gate)
        return self

    def add(self, name: str, qubits: Iterable[int], params: Iterable[float] = ()) -> "QuantumCircuit":
        """Append a gate by name."""
        return self.append(Gate(name, qubits, params))

    def extend(self, gates: Iterable[Gate]) -> "QuantumCircuit":
        """Append every gate in *gates*."""
        for g in gates:
            self.append(g)
        return self

    def compose(self, other: "QuantumCircuit") -> "QuantumCircuit":
        """Append all gates of *other* (must fit this register)."""
        if other.num_qubits > self.num_qubits:
            raise CircuitError("composed circuit has more qubits than target")
        return self.extend(other.gates)

    # -- builder API ---------------------------------------------------------

    def id(self, q: int) -> "QuantumCircuit":
        return self.add("id", [q])

    def x(self, q: int) -> "QuantumCircuit":
        return self.add("x", [q])

    def y(self, q: int) -> "QuantumCircuit":
        return self.add("y", [q])

    def z(self, q: int) -> "QuantumCircuit":
        return self.add("z", [q])

    def h(self, q: int) -> "QuantumCircuit":
        return self.add("h", [q])

    def s(self, q: int) -> "QuantumCircuit":
        return self.add("s", [q])

    def sdg(self, q: int) -> "QuantumCircuit":
        return self.add("sdg", [q])

    def t(self, q: int) -> "QuantumCircuit":
        return self.add("t", [q])

    def tdg(self, q: int) -> "QuantumCircuit":
        return self.add("tdg", [q])

    def sx(self, q: int) -> "QuantumCircuit":
        return self.add("sx", [q])

    def rx(self, theta: float, q: int) -> "QuantumCircuit":
        return self.add("rx", [q], [theta])

    def ry(self, theta: float, q: int) -> "QuantumCircuit":
        return self.add("ry", [q], [theta])

    def rz(self, theta: float, q: int) -> "QuantumCircuit":
        return self.add("rz", [q], [theta])

    def p(self, theta: float, q: int) -> "QuantumCircuit":
        return self.add("p", [q], [theta])

    def u(self, theta: float, phi: float, lam: float, q: int) -> "QuantumCircuit":
        return self.add("u3", [q], [theta, phi, lam])

    def cx(self, c: int, t: int) -> "QuantumCircuit":
        return self.add("cx", [c, t])

    def cz(self, a: int, b: int) -> "QuantumCircuit":
        return self.add("cz", [a, b])

    def swap(self, a: int, b: int) -> "QuantumCircuit":
        return self.add("swap", [a, b])

    def rzz(self, theta: float, a: int, b: int) -> "QuantumCircuit":
        return self.add("rzz", [a, b], [theta])

    def rxx(self, theta: float, a: int, b: int) -> "QuantumCircuit":
        return self.add("rxx", [a, b], [theta])

    def ryy(self, theta: float, a: int, b: int) -> "QuantumCircuit":
        return self.add("ryy", [a, b], [theta])

    def cp(self, theta: float, a: int, b: int) -> "QuantumCircuit":
        return self.add("cp", [a, b], [theta])

    def ccx(self, a: int, b: int, c: int) -> "QuantumCircuit":
        return self.add("ccx", [a, b, c])

    def ccz(self, a: int, b: int, c: int) -> "QuantumCircuit":
        return self.add("ccz", [a, b, c])

    def measure(self, q: int) -> "QuantumCircuit":
        return self.add(MEASURE, [q])

    def measure_all(self) -> "QuantumCircuit":
        for q in range(self.num_qubits):
            self.measure(q)
        return self

    def barrier(self, *qubits: int) -> "QuantumCircuit":
        qs = tuple(qubits) if qubits else tuple(range(self.num_qubits))
        self._gates.append(Gate(BARRIER, qs))
        return self

    # -- statistics ----------------------------------------------------------

    def count_ops(self) -> Counter:
        """Histogram of gate names."""
        return Counter(g.name for g in self._gates)

    @property
    def num_1q_gates(self) -> int:
        """Number of single-qubit unitary gates."""
        return sum(1 for g in self._gates if g.is_one_qubit)

    @property
    def num_2q_gates(self) -> int:
        """Number of two-qubit unitary gates."""
        return sum(1 for g in self._gates if g.is_two_qubit)

    def two_qubit_gates(self) -> list[Gate]:
        """List of the two-qubit unitary gates, in order."""
        return [g for g in self._gates if g.is_two_qubit]

    def interaction_pairs(self) -> Counter:
        """Counter of unordered qubit pairs joined by a 2Q gate."""
        pairs: Counter = Counter()
        for g in self._gates:
            if g.is_two_qubit:
                pairs[g.key()] += 1
        return pairs

    def degree_per_qubit(self) -> float:
        """Average number of distinct partners per active qubit (Table II)."""
        partners: dict[int, set[int]] = {}
        for g in self._gates:
            if g.is_two_qubit:
                a, b = g.qubits
                partners.setdefault(a, set()).add(b)
                partners.setdefault(b, set()).add(a)
        if not partners:
            return 0.0
        return sum(len(v) for v in partners.values()) / len(partners)

    def two_qubit_gates_per_qubit(self) -> float:
        """Average number of 2Q gates touching each qubit (Table II)."""
        touch: Counter = Counter()
        for g in self._gates:
            if g.is_two_qubit:
                for q in g.qubits:
                    touch[q] += 1
        if not touch:
            return 0.0
        return sum(touch.values()) / len(touch)

    def depth(self, two_qubit_only: bool = False) -> int:
        """Circuit depth via greedy wire-front layering.

        With ``two_qubit_only`` the depth counts only layers containing at
        least one 2Q gate and ignores 1Q gates entirely — the paper's
        "number of parallel two-qubit layers" metric.
        """
        front = [0] * self.num_qubits
        for g in self._gates:
            if g.is_directive and g.name == BARRIER:
                level = max((front[q] for q in g.qubits), default=0)
                for q in g.qubits:
                    front[q] = level
                continue
            if two_qubit_only and not g.is_entangling:
                continue
            level = max(front[q] for q in g.qubits) + 1
            for q in g.qubits:
                front[q] = level
        return max(front, default=0)

    def active_qubits(self) -> set[int]:
        """Qubits touched by at least one gate."""
        out: set[int] = set()
        for g in self._gates:
            out.update(g.qubits)
        return out

    # -- transforms ----------------------------------------------------------

    def copy(self, name: str | None = None) -> "QuantumCircuit":
        """Shallow copy (gates are immutable)."""
        c = QuantumCircuit(self.num_qubits, name or self.name)
        c._gates = list(self._gates)
        return c

    def remapped(self, mapping: dict[int, int], num_qubits: int | None = None) -> "QuantumCircuit":
        """Relabel qubits according to *mapping*."""
        n = num_qubits if num_qubits is not None else self.num_qubits
        c = QuantumCircuit(n, self.name)
        for g in self._gates:
            c.append(g.remapped(mapping))
        return c

    def without_directives(self) -> "QuantumCircuit":
        """Copy with measure/barrier removed."""
        c = QuantumCircuit(self.num_qubits, self.name)
        c._gates = [g for g in self._gates if not g.is_directive]
        return c

    def reversed(self) -> "QuantumCircuit":
        """Copy with the gate order reversed (used by SABRE layout search)."""
        c = QuantumCircuit(self.num_qubits, self.name)
        c._gates = list(reversed([g for g in self._gates if not g.is_directive]))
        return c
