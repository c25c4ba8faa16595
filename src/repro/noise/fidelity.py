"""End-to-end fidelity estimation (Sec. V-A).

``F = F_1Q * F_2Q * F_transfer * F_mov`` where ``F_mov`` multiplies the four
movement terms of Sec. IV.  Two entry points:

* :func:`estimate_raa_fidelity` — consumes a compiled
  :class:`~repro.core.program.ProgramStore`;
* :func:`estimate_circuit_fidelity` — consumes a routed FAA/superconducting
  circuit (no movement terms; SWAPs already expanded into the gate counts).

Both return a :class:`FidelityReport` whose ``breakdown()`` provides the
``-log(F)`` error decomposition plotted in Fig. 18's second row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..circuits.circuit import QuantumCircuit
from ..core.program import ProgramStore
from ..hardware.parameters import HardwareParams
from . import movement_noise as mov


@dataclass(frozen=True)
class FidelityReport:
    """All multiplicative fidelity terms of one execution."""

    f_1q: float = 1.0
    f_2q: float = 1.0
    f_transfer: float = 1.0
    f_mov_heating: float = 1.0
    f_mov_loss: float = 1.0
    f_mov_cooling: float = 1.0
    f_mov_deco: float = 1.0

    @property
    def f_mov(self) -> float:
        """Eq. 1: product of the four movement terms."""
        return (
            self.f_mov_heating
            * self.f_mov_loss
            * self.f_mov_cooling
            * self.f_mov_deco
        )

    @property
    def total(self) -> float:
        return self.f_1q * self.f_2q * self.f_transfer * self.f_mov

    def breakdown(self) -> dict[str, float]:
        """``-log(fidelity)`` per error source (Fig. 18 bottom row)."""

        def neglog(x: float) -> float:
            if x <= 0.0:
                return float("inf")
            return -math.log(x)

        return {
            "1Q Gate": neglog(self.f_1q),
            "2Q Gate": neglog(self.f_2q),
            "Transfer": neglog(self.f_transfer),
            "Move Heating": neglog(self.f_mov_heating),
            "Move Cooling": neglog(self.f_mov_cooling),
            "Move Atom Loss": neglog(self.f_mov_loss),
            "Move Decoherence": neglog(self.f_mov_deco),
        }


def _one_qubit_term(
    num_1q: int, num_1q_layers: int, num_qubits: int, params: HardwareParams
) -> float:
    """``f1q^N1Q * exp(-T1Q/T1 * N)`` with layered cumulative time."""
    gate_term = params.f_1q**num_1q
    t_1q_total = num_1q_layers * params.t_1q
    return gate_term * math.exp(-t_1q_total / params.t1 * num_qubits)


def _two_qubit_term(
    num_2q: int, num_2q_layers: int, num_qubits: int, params: HardwareParams
) -> float:
    """``f2q^N2Q * exp(-T2Q/T1 * N)`` with layered cumulative time."""
    gate_term = params.f_2q**num_2q
    t_2q_total = num_2q_layers * params.t_2q
    return gate_term * math.exp(-t_2q_total / params.t1 * num_qubits)


def estimate_raa_fidelity(
    program: ProgramStore, params: HardwareParams
) -> FidelityReport:
    """Fidelity of a compiled RAA program (movement terms included).

    Every aggregate is a column reduction — stage-occupancy counts off
    the offset tables and the ``n_vib`` column read as one numpy array in
    gate order; no stage views are built.
    """
    n = program.num_qubits
    num_moving = program.num_moving_stages
    f_heating = mov.movement_heating_fidelity_array(
        program.gate_n_vib_array(), params
    )

    f_transfer = (1.0 - params.p_transfer_loss) ** program.num_transfers
    if program.num_transfers:
        f_transfer *= math.exp(
            -program.num_transfers * params.t_transfer / params.t1 * n
        )

    return FidelityReport(
        f_1q=_one_qubit_term(
            program.num_1q_gates, program.num_1q_stages, n, params
        ),
        f_2q=_two_qubit_term(
            program.num_2q_gates, program.two_qubit_depth, n, params
        ),
        f_transfer=f_transfer,
        f_mov_heating=f_heating,
        f_mov_loss=mov.movement_loss_fidelity(program.atom_loss_log, params),
        f_mov_cooling=mov.cooling_fidelity(program.num_cooling_cz, params),
        f_mov_deco=mov.movement_decoherence_fidelity(num_moving, n, params),
    )


def estimate_circuit_fidelity(
    circuit: QuantumCircuit,
    params: HardwareParams,
    num_qubits: int | None = None,
) -> FidelityReport:
    """Fidelity of a routed circuit on a fixed-coupling device.

    SWAPs must already be decomposed (or they count as a single 2Q gate,
    matching the caller's accounting choice).  No movement terms.
    """
    n = num_qubits if num_qubits is not None else len(circuit.active_qubits())
    n = max(n, 1)
    num_1q = circuit.num_1q_gates
    num_2q = circuit.num_2q_gates
    depth_2q = circuit.depth(two_qubit_only=True)
    # 1Q layers: total depth minus 2Q layers is a close upper bound.
    depth_all = circuit.depth()
    num_1q_layers = max(depth_all - depth_2q, 1 if num_1q else 0)
    return FidelityReport(
        f_1q=_one_qubit_term(num_1q, num_1q_layers, n, params),
        f_2q=_two_qubit_term(num_2q, depth_2q, n, params),
    )
