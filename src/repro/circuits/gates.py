"""Gate taxonomy for the circuit IR.

A :class:`Gate` is an immutable record: a name, the qubits it acts on, and
optional real parameters.  The module also provides unitary matrices for the
standard gates so tests can verify decompositions numerically.

Only the gate *metadata* (arity, whether the gate is diagonal, whether it is
an entangling two-qubit gate) is consulted by the compiler; matrices are used
exclusively for verification.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable
from operator import index as _index

import numpy as np

#: Names of gates acting on a single qubit.
ONE_QUBIT_GATES = frozenset(
    {
        "id",
        "x",
        "y",
        "z",
        "h",
        "s",
        "sdg",
        "t",
        "tdg",
        "sx",
        "rx",
        "ry",
        "rz",
        "u",
        "u1",
        "u2",
        "u3",
        "p",
    }
)

#: Names of gates acting on exactly two qubits.
TWO_QUBIT_GATES = frozenset(
    {"cx", "cz", "swap", "rzz", "rxx", "ryy", "cp", "crz", "iswap"}
)

#: Names of gates acting on three qubits (decomposed before routing).
THREE_QUBIT_GATES = frozenset({"ccx", "ccz", "cswap"})

#: Two-qubit gates that are symmetric under qubit exchange.
SYMMETRIC_GATES = frozenset({"cz", "swap", "rzz", "rxx", "ryy", "cp", "iswap", "ccz"})

#: Gates diagonal in the computational basis (commute with each other).
DIAGONAL_GATES = frozenset({"id", "z", "s", "sdg", "t", "tdg", "rz", "u1", "p", "cz", "rzz", "cp", "crz", "ccz"})

#: Number of parameters each parameterised gate expects.
GATE_NUM_PARAMS = {
    "rx": 1,
    "ry": 1,
    "rz": 1,
    "p": 1,
    "u1": 1,
    "u2": 2,
    "u3": 3,
    "u": 3,
    "rzz": 1,
    "rxx": 1,
    "ryy": 1,
    "cp": 1,
    "crz": 1,
}

#: Name of the measurement pseudo-gate.
MEASURE = "measure"
#: Name of the barrier pseudo-gate.
BARRIER = "barrier"

#: Fixed qubit count per gate name (names absent here take any arity).
_ARITY: dict[str, int] = {
    **dict.fromkeys(ONE_QUBIT_GATES, 1),
    MEASURE: 1,
    **dict.fromkeys(TWO_QUBIT_GATES, 2),
    **dict.fromkeys(THREE_QUBIT_GATES, 3),
}


class GateError(ValueError):
    """Raised when a gate is constructed with inconsistent metadata."""


class Gate:
    """An immutable gate application.

    Parameters
    ----------
    name:
        Lower-case gate mnemonic (``"cz"``, ``"u3"``, ...).
    qubits:
        Tuple of distinct qubit indices the gate acts on.
    params:
        Tuple of real parameters (rotation angles in radians).

    ``Gate(...)`` normalises (lower-cased ``str`` name, ``int`` qubits via
    :func:`operator.index`, ``float`` params) and validates its fields once.
    :meth:`trusted` skips both, for gates the compiler builds from fields
    that are already normalised.
    """

    __slots__ = ("name", "qubits", "params")

    name: str
    qubits: tuple[int, ...]
    params: tuple[float, ...]

    def __init__(
        self, name: str, qubits: Iterable[int], params: Iterable[float] = ()
    ) -> None:
        if not isinstance(name, str):
            raise GateError(
                f"gate name must be a str, got {type(name).__name__}: {name!r}"
            )
        name = name.lower()
        try:
            qubits = tuple(map(_index, qubits))
        except TypeError as exc:
            raise GateError(
                f"qubit indices of gate {name} must be integers: {exc}"
            ) from None
        params = tuple(map(float, params))
        _set_name(self, name)
        _set_qubits(self, qubits)
        _set_params(self, params)
        n = len(qubits)
        if n > 1 and len(set(qubits)) != n:
            raise GateError(f"duplicate qubits in gate {name}: {qubits}")
        if n and min(qubits) < 0:
            raise GateError(f"negative qubit index in gate {name}: {qubits}")
        expected = _ARITY.get(name)
        if expected is not None and n != expected:
            raise GateError(f"gate {name!r} expects {expected} qubits, got {n}")
        nparams = GATE_NUM_PARAMS.get(name)
        if nparams is not None and len(params) != nparams:
            raise GateError(
                f"gate {name!r} expects {nparams} params, got {len(params)}"
            )

    @staticmethod
    def trusted(
        name: str, qubits: tuple[int, ...], params: tuple[float, ...] = ()
    ) -> "Gate":
        """Build a gate from already-normalised fields without validating.

        Only for gates the code derives itself from valid gates: *name* a
        lower-case ``str``, *qubits* a tuple of distinct non-negative
        ``int``, *params* a tuple of ``float``, arity and parameter count
        right.  Anything read from a user or the network goes through
        ``Gate(...)``.
        """
        gate = _new(Gate)
        _set_name(gate, name)
        _set_qubits(gate, qubits)
        _set_params(gate, params)
        return gate

    def __setattr__(self, attr: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {attr!r} of an immutable Gate")

    def __delattr__(self, attr: str) -> None:
        raise AttributeError(f"cannot delete field {attr!r} of an immutable Gate")

    def __reduce__(self) -> tuple:
        return (Gate.trusted, (self.name, self.qubits, self.params))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Gate:
            return NotImplemented
        return (
            self.name == other.name  # type: ignore[attr-defined]
            and self.qubits == other.qubits  # type: ignore[attr-defined]
            and self.params == other.params  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:
        return hash((self.name, self.qubits, self.params))

    @property
    def num_qubits(self) -> int:
        """Number of qubits this gate touches."""
        return len(self.qubits)

    @property
    def is_one_qubit(self) -> bool:
        """True for single-qubit unitary gates (not measure/barrier)."""
        return self.name in ONE_QUBIT_GATES

    @property
    def is_two_qubit(self) -> bool:
        """True for two-qubit unitary gates."""
        return self.name in TWO_QUBIT_GATES

    @property
    def is_entangling(self) -> bool:
        """True for multi-qubit unitary gates (arity >= 2)."""
        return self.name in TWO_QUBIT_GATES or self.name in THREE_QUBIT_GATES

    @property
    def is_symmetric(self) -> bool:
        """True if exchanging the qubits leaves the gate invariant."""
        return self.name in SYMMETRIC_GATES

    @property
    def is_diagonal(self) -> bool:
        """True if the gate is diagonal in the computational basis."""
        return self.name in DIAGONAL_GATES

    @property
    def is_directive(self) -> bool:
        """True for non-unitary pseudo-ops (measure, barrier)."""
        return self.name in (MEASURE, BARRIER)

    def remapped(self, mapping: dict[int, int]) -> "Gate":
        """Return a copy acting on ``mapping[q]`` for each qubit *q*."""
        return Gate(self.name, tuple(mapping[q] for q in self.qubits), self.params)

    def key(self) -> tuple[int, int]:
        """Canonical unordered qubit pair for a two-qubit gate."""
        if len(self.qubits) != 2:
            raise GateError(f"key() requires a 2-qubit gate, got {self.name}")
        a, b = self.qubits
        return (a, b) if a < b else (b, a)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.params:
            ps = ", ".join(f"{p:.4g}" for p in self.params)
            return f"{self.name}({ps}) q{list(self.qubits)}"
        return f"{self.name} q{list(self.qubits)}"


_new = object.__new__
_set_name = Gate.name.__set__  # type: ignore[attr-defined]
_set_qubits = Gate.qubits.__set__  # type: ignore[attr-defined]
_set_params = Gate.params.__set__  # type: ignore[attr-defined]


# ---------------------------------------------------------------------------
# Unitary matrices (verification only)
# ---------------------------------------------------------------------------

_SQ2 = 1.0 / math.sqrt(2.0)

_FIXED_1Q = {
    "id": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "t": np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex),
    "tdg": np.array([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]], dtype=complex),
    "sx": 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex),
}


def _u3(theta: float, phi: float, lam: float) -> np.ndarray:
    """Standard U3 matrix (OpenQASM convention)."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


def one_qubit_matrix(gate: Gate) -> np.ndarray:
    """Return the 2x2 unitary of a single-qubit *gate*."""
    name, params = gate.name, gate.params
    if name in _FIXED_1Q:
        return _FIXED_1Q[name].copy()
    if name == "rx":
        (theta,) = params
        return _u3(theta, -math.pi / 2, math.pi / 2)
    if name == "ry":
        (theta,) = params
        return _u3(theta, 0.0, 0.0)
    if name == "rz":
        (theta,) = params
        return np.diag([cmath.exp(-1j * theta / 2), cmath.exp(1j * theta / 2)])
    if name in ("p", "u1"):
        (theta,) = params
        return np.diag([1.0, cmath.exp(1j * theta)])
    if name == "u2":
        phi, lam = params
        return _u3(math.pi / 2, phi, lam)
    if name in ("u3", "u"):
        return _u3(*params)
    raise GateError(f"no matrix known for 1q gate {name!r}")


def two_qubit_matrix(gate: Gate) -> np.ndarray:
    """Return the 4x4 unitary of a two-qubit *gate*.

    Qubit ordering: ``qubits[0]`` is the most-significant bit, matching the
    tensor-product convention ``U = U_{q0 q1}`` on basis ``|q0 q1>``.
    """
    name, params = gate.name, gate.params
    if name == "cx":
        return np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
    if name == "cz":
        return np.diag([1, 1, 1, -1]).astype(complex)
    if name == "swap":
        return np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
    if name == "iswap":
        return np.array(
            [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
    if name == "rzz":
        (theta,) = params
        e = cmath.exp(-1j * theta / 2)
        f = cmath.exp(1j * theta / 2)
        return np.diag([e, f, f, e])
    if name == "rxx":
        (theta,) = params
        c, s = math.cos(theta / 2), -1j * math.sin(theta / 2)
        m = np.eye(4, dtype=complex) * c
        m[0, 3] = m[3, 0] = m[1, 2] = m[2, 1] = s
        return m
    if name == "ryy":
        (theta,) = params
        c, s = math.cos(theta / 2), 1j * math.sin(theta / 2)
        m = np.eye(4, dtype=complex) * c
        m[0, 3] = m[3, 0] = s
        m[1, 2] = m[2, 1] = -s
        return m
    if name == "cp":
        (theta,) = params
        return np.diag([1, 1, 1, cmath.exp(1j * theta)]).astype(complex)
    if name == "crz":
        (theta,) = params
        return np.diag(
            [1, 1, cmath.exp(-1j * theta / 2), cmath.exp(1j * theta / 2)]
        ).astype(complex)
    raise GateError(f"no matrix known for 2q gate {name!r}")


def gate_matrix(gate: Gate) -> np.ndarray:
    """Return the unitary of *gate* (1Q or 2Q only)."""
    if gate.is_one_qubit:
        return one_qubit_matrix(gate)
    if gate.is_two_qubit:
        return two_qubit_matrix(gate)
    raise GateError(f"gate_matrix supports 1Q/2Q gates, got {gate.name}")


def matrices_equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """True if ``a == e^{i phi} b`` for some global phase phi."""
    if a.shape != b.shape:
        return False
    # Find the largest-magnitude entry of b to fix the phase.
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[idx]) < tol:
        return bool(np.allclose(a, b, atol=tol))
    phase = a[idx] / b[idx]
    if abs(abs(phase) - 1.0) > 1e-7:
        return False
    return bool(np.allclose(a, phase * b, atol=tol))
