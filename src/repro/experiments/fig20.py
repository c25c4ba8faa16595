"""Fig. 20: array-topology sensitivity.

(a) same atom count per array, different row:col aspect ratios;
(b) square arrays from 7x7 to 20x20;
(c) 1-7 AOD arrays.

Benchmarks (paper): 100-qubit arbitrary circuit with 10 gates/qubit, 40-qubit
QSim at p=0.5, 40-qubit 5-regular QAOA.  Metrics: execution time, fidelity,
average moving distance, 2Q gate count.

Expected shapes: square arrays minimize move distance (max fidelity) with a
slight execution-time penalty; larger arrays lengthen moves and hurt
fidelity; more AODs reduce 2Q count and execution time.

Every runner routes its (topology x benchmark) grid through
:func:`~repro.experiments.batch.compile_many`: ``workers=N`` fans the grid
out over a process pool, ``cache=<dir>`` enables the on-disk result cache,
and the serial default shares one pipeline prefix cache (each circuit's
lowering is topology-independent, so it is reused across all of its
topology points).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.metrics import CompiledMetrics
from ..circuits.circuit import QuantumCircuit
from ..circuits.random_circuits import random_circuit
from ..generators.qaoa import qaoa_regular
from ..generators.qsim import qsim_random
from ..hardware.raa import ArrayShape, RAAArchitecture
from .common import run_architecture_grid


def default_benchmarks() -> list[QuantumCircuit]:
    """Arb-100Q (10 gates/qubit), QSim-40Q (p=0.5), QAOA-40Q (5-regular)."""
    arb = random_circuit(100, 10.0, 5.0, seed=100)
    arb.name = "Arb-100Q"
    qsim = qsim_random(40, seed=40)
    qsim.name = "QSim-40Q"
    qaoa = qaoa_regular(40, 5, seed=40)
    qaoa.name = "QAOA-40Q"
    return [arb, qsim, qaoa]


@dataclass
class TopologyPoint:
    """One (topology label, benchmark) sample."""

    label: str
    benchmark: str
    metrics: CompiledMetrics


def _run_topology_grid(
    topologies: list[tuple[str, RAAArchitecture]],
    circuits: list[QuantumCircuit],
    seed: int,
    workers: int,
    cache: "str | None",
) -> list[TopologyPoint]:
    """Compile every (topology, benchmark) cell through the batch driver."""
    return [
        TopologyPoint(label, bench, m)
        for label, bench, m in run_architecture_grid(
            topologies, circuits, seed=seed, workers=workers, cache=cache
        )
    ]


def run_aspect_ratio(
    shapes: list[tuple[int, int]] | None = None,
    benchmarks: list[QuantumCircuit] | None = None,
    num_aods: int = 2,
    seed: int = 7,
    workers: int = 1,
    cache: "str | None" = None,
) -> list[TopologyPoint]:
    """Fig. 20(a): same capacity, varying row:col ratio."""
    shapes = shapes if shapes is not None else [(4, 12), (6, 8), (7, 7), (8, 6), (12, 4)]
    circuits = benchmarks if benchmarks is not None else default_benchmarks()
    topologies = [
        (
            f"{rows}x{cols}",
            RAAArchitecture(
                slm_shape=ArrayShape(rows, cols),
                aod_shapes=[ArrayShape(rows, cols) for _ in range(num_aods)],
            ),
        )
        for rows, cols in shapes
    ]
    return _run_topology_grid(topologies, circuits, seed, workers, cache)


def run_array_size(
    sides: list[int] | None = None,
    benchmarks: list[QuantumCircuit] | None = None,
    num_aods: int = 2,
    seed: int = 7,
    workers: int = 1,
    cache: "str | None" = None,
) -> list[TopologyPoint]:
    """Fig. 20(b): square arrays of growing side."""
    sides = sides if sides is not None else [7, 10, 14, 20]
    circuits = benchmarks if benchmarks is not None else default_benchmarks()
    topologies = [
        (
            f"{side}x{side}",
            RAAArchitecture.default(side=side, num_aods=num_aods),
        )
        for side in sides
    ]
    return _run_topology_grid(topologies, circuits, seed, workers, cache)


def run_num_aods(
    aod_counts: list[int] | None = None,
    benchmarks: list[QuantumCircuit] | None = None,
    side: int = 10,
    seed: int = 7,
    workers: int = 1,
    cache: "str | None" = None,
) -> list[TopologyPoint]:
    """Fig. 20(c): 1-7 AOD arrays."""
    counts = aod_counts if aod_counts is not None else [1, 2, 3, 5, 7]
    circuits = benchmarks if benchmarks is not None else default_benchmarks()
    topologies = [
        (f"{k} AODs", RAAArchitecture.default(side=side, num_aods=k))
        for k in counts
    ]
    return _run_topology_grid(topologies, circuits, seed, workers, cache)
