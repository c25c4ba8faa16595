"""Output checks: recorded expected outputs, bit-identity with an in-process
compile, and statevector equivalence for small circuits.

An *output* is what a caller keeps from a compile: every field of its
:class:`~repro.analysis.metrics.CompiledMetrics` except the wall-clock
ones, plus the v3 binary encoding of the program when one was returned.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from repro.analysis.metrics import CompiledMetrics
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.decompose import lower_to_two_qubit
from repro.core.binformat import encode_program
from repro.sim import program_to_circuit, simulate

#: Largest register the statevector check simulates.
SEMANTIC_MAX_QUBITS = 12


def output_fields(m: CompiledMetrics) -> dict:
    """The deterministic fields of a compile, exactly (floats as repr)."""
    return {
        "benchmark": m.benchmark,
        "architecture": m.architecture,
        "num_qubits": m.num_qubits,
        "num_2q_gates": m.num_2q_gates,
        "num_1q_gates": m.num_1q_gates,
        "depth": m.depth,
        "additional_cnots": m.additional_cnots,
        "fidelity": repr(m.fidelity),
        "execution_seconds": repr(m.execution_seconds),
        "extras": {
            k: repr(v)
            for k, v in sorted(m.extras.items())
            if not k.startswith("pass_seconds.")
        },
    }


#: Wall-clock fields a program carries; measurements, not outputs.
PROGRAM_TIMINGS = ("compile_seconds", "emit_seconds", "probe_seconds")


def program_digest(program) -> str:
    """Hash of the program's v3 encoding with its wall-clock fields zeroed."""
    view = copy.copy(program)
    for name in PROGRAM_TIMINGS:
        if hasattr(view, name):
            setattr(view, name, 0.0)
    return hashlib.sha256(encode_program(view)).hexdigest()


def digest(m: CompiledMetrics, program=None) -> str:
    """One hash over a compile's output (and its program, if kept)."""
    doc = output_fields(m)
    if program is not None:
        doc["program"] = program_digest(program)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def quality(metrics: list[CompiledMetrics]) -> dict[str, float]:
    """The paper's quality outputs summed over *metrics* (one per job)."""
    return {
        "num_2q_gates": float(sum(m.num_2q_gates for m in metrics)),
        "two_qubit_depth": float(sum(m.depth for m in metrics)),
        "neg_log10_fidelity": float(
            sum(-math.log10(max(m.total_fidelity, 1e-300)) for m in metrics)
        ),
        "program_exec_s": float(sum(m.execution_seconds for m in metrics)),
    }


def load_expected(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return {}


def expected_for(table: dict, workload: str, size: str, seed: int) -> dict | None:
    """``{job name: digest}`` recorded for this run, or None."""
    return table.get(f"{workload}/{size}", {}).get(str(seed))


def semantically_equivalent(circuit: QuantumCircuit, result) -> bool:
    """The program's statevector equals the input's after undoing the
    final SWAP permutation (``result`` is a CompileResult)."""
    n = circuit.num_qubits
    sv_in = simulate(lower_to_two_qubit(circuit.without_directives()))
    sv_prog = simulate(program_to_circuit(result.program))
    perm = [result.final_layout[q] for q in range(n)]
    tensor = np.transpose(sv_prog.data.reshape([2] * n), perm)
    overlap = abs(np.vdot(sv_in.data, tensor.reshape(-1)))
    return bool(abs(overlap - 1.0) < 1e-7)


class Tally:
    """Per-operation outcome: an op fails if it raised, timed out or any
    check on its output failed."""

    def __init__(self) -> None:
        self.ops: list[tuple[str, bool]] = []  # (job name, ok)
        self.bad_jobs: set[str] = set()
        self.notes: list[str] = []

    def op(self, job_name: str, ok: bool = True) -> None:
        self.ops.append((job_name, ok))

    def fail_job(self, job_name: str, why: str) -> None:
        self.bad_jobs.add(job_name)
        self.notes.append(f"{job_name}: {why}")

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(
            1 for name, ok in self.ops if not ok or name in self.bad_jobs
        )


def check_outputs(
    tally: Tally,
    outputs: dict[str, set[str]],
    expected: dict | None,
    reference: dict[str, str] | None = None,
) -> None:
    """Every op of a job produced one digest, equal to the recorded one
    (if this seed was recorded) and to the in-process *reference*."""
    for name, seen in outputs.items():
        if len(seen) != 1:
            tally.fail_job(name, f"{len(seen)} different outputs across repeats")
            continue
        (got,) = seen
        if expected is not None and expected.get(name) != got:
            tally.fail_job(name, "output differs from expected.json")
        if reference is not None and reference.get(name) != got:
            tally.fail_job(name, "output differs from the in-process compile")
    if expected is not None:
        for name in set(expected) - set(outputs):
            tally.notes.append(f"{name}: recorded but not run")
