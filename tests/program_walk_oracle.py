"""Reference stage walks over a ProgramStore's lazy views.

The library computes every aggregate and every program consumer (noisy
simulation, replay, fidelity) as a fold over column segments.  These
helpers compute the same quantities the straightforward way — one
:class:`~repro.core.program.StageView` at a time, through its instruction
records — so tests can pin the column folds against an independent walk,
bit for bit.  Summation order follows the stage order, as the folds do.
"""

from __future__ import annotations

import math

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate
from repro.noise import movement_noise as mov
from repro.noise.fidelity import FidelityReport, _one_qubit_term, _two_qubit_term
from repro.noise.movement_noise import atom_loss_probability, heating_gate_factor


def walk_duration(stage, params) -> float:
    """Stage time from the record lists: Raman + move + Rydberg (+ cooling)."""
    t = 0.0
    if stage.one_qubit_gates:
        t += params.t_1q
    if stage.moves:
        t += params.t_per_move
    if stage.gates:
        t += params.t_2q
    if stage.cooling:
        t += params.t_per_move + 2 * params.t_2q
    return t


def walk_aggregates(program, params) -> dict:
    """Every aggregate :class:`ProgramStore` folds, by walking its views."""
    stages = list(program.stages)
    moving = sum(1 for s in stages if s.moves)
    total_distance = sum(
        m.distance_sites * params.atom_distance for s in stages for m in s.moves
    )
    return {
        "num_stages": len(stages),
        "num_2q_gates": sum(len(s.gates) for s in stages),
        "num_1q_gates": sum(len(s.one_qubit_gates) for s in stages),
        "two_qubit_depth": sum(1 for s in stages if s.gates),
        "num_moves": sum(len(s.moves) for s in stages),
        "num_moving_stages": moving,
        "num_1q_stages": sum(1 for s in stages if s.one_qubit_gates),
        "num_cooling_events": sum(len(s.cooling) for s in stages),
        "num_cooling_cz": sum(ev.num_cz for s in stages for ev in s.cooling),
        "total_move_distance": total_distance,
        "avg_move_distance": total_distance / moving if moving else 0.0,
        "execution_time": sum(walk_duration(s, params) for s in stages),
        "gate_pairs": [(g.qubit_a, g.qubit_b) for s in stages for g in s.gates],
        "gate_n_vib": [g.n_vib for s in stages for g in s.gates],
    }


def store_aggregates(program, params) -> dict:
    """The same keys as :func:`walk_aggregates`, read off the store."""
    return {
        "num_stages": program.num_stages,
        "num_2q_gates": program.num_2q_gates,
        "num_1q_gates": program.num_1q_gates,
        "two_qubit_depth": program.two_qubit_depth,
        "num_moves": program.num_moves,
        "num_moving_stages": program.num_moving_stages,
        "num_1q_stages": program.num_1q_stages,
        "num_cooling_events": program.num_cooling_events,
        "num_cooling_cz": program.num_cooling_cz,
        "total_move_distance": program.total_move_distance(params),
        "avg_move_distance": program.avg_move_distance(params),
        "execution_time": program.execution_time(params),
        "gate_pairs": program.gate_pairs(),
        "gate_n_vib": [
            v for arr in program.gate_n_vib_arrays() for v in arr.tolist()
        ],
    }


def walk_stage_events(program, params) -> list:
    """The noisy simulator's ``(stage, kind, probability, atom)`` events,
    built stage view by stage view."""
    events = []
    loss_iter = iter(program.atom_loss_log)
    n = program.num_qubits
    for si, stage in enumerate(program.stages):
        if stage.one_qubit_gates:
            for _ in stage.one_qubit_gates:
                events.append((si, "1q", 1.0 - params.f_1q, None))
            p_deco = 1.0 - math.exp(-params.t_1q / params.t1 * n)
            events.append((si, "deco", p_deco, None))
        for q in stage.atom_move_distance:
            nv = next(loss_iter)
            events.append((si, "loss", atom_loss_probability(nv, params), q))
        if stage.moves:
            p_deco = 1.0 - math.exp(-params.t_per_move / params.t1 * n)
            events.append((si, "deco", p_deco, None))
        for g in stage.gates:
            p_gate = 1.0 - params.f_2q * heating_gate_factor(g.n_vib, params)
            events.append((si, "2q", min(max(p_gate, 0.0), 1.0), None))
        if stage.gates:
            p_deco = 1.0 - math.exp(-params.t_2q / params.t1 * n)
            events.append((si, "deco", p_deco, None))
        for cool in stage.cooling:
            for _ in range(cool.num_cz):
                events.append((si, "cooling", 1.0 - params.f_2q, None))
    return events


def walk_replay(program) -> QuantumCircuit:
    """The executed circuit: each stage's Raman pulses, then its gates."""
    circ = QuantumCircuit(program.num_qubits, "replayed")
    for stage in program.stages:
        for pulse in stage.one_qubit_gates:
            circ.append(Gate(pulse.name, (pulse.qubit,), pulse.params))
        for gate in stage.gates:
            circ.append(Gate(gate.name, (gate.qubit_a, gate.qubit_b), gate.params))
    return circ


def walk_fidelity(program, params) -> FidelityReport:
    """The Sec. V-A fidelity report from walked aggregates."""
    agg = walk_aggregates(program, params)
    n = program.num_qubits
    f_transfer = (1.0 - params.p_transfer_loss) ** program.num_transfers
    if program.num_transfers:
        f_transfer *= math.exp(
            -program.num_transfers * params.t_transfer / params.t1 * n
        )
    return FidelityReport(
        f_1q=_one_qubit_term(agg["num_1q_gates"], agg["num_1q_stages"], n, params),
        f_2q=_two_qubit_term(
            agg["num_2q_gates"], agg["two_qubit_depth"], n, params
        ),
        f_transfer=f_transfer,
        f_mov_heating=mov.movement_heating_fidelity(agg["gate_n_vib"], params),
        f_mov_loss=mov.movement_loss_fidelity(program.atom_loss_log, params),
        f_mov_cooling=mov.cooling_fidelity(agg["num_cooling_cz"], params),
        f_mov_deco=mov.movement_decoherence_fidelity(
            agg["num_moving_stages"], n, params
        ),
    )
