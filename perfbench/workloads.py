"""Seeded inputs of the three benchmark workloads.

Every circuit is drawn from ``--seed``; the program under test receives
only the generated circuits and the compile jobs built from them.  The
shape of each job pool (sizes, kinds, router configs) is fixed, so two
seeds differ only in the random graphs and Pauli strings, not in how much
work a run holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.registry import CompileOptions
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.random_circuits import random_circuit
from repro.core.compiler import AtomiqueConfig
from repro.core.router import RouterConfig
from repro.experiments import raa_for
from repro.experiments.batch import CompileJob
from repro.experiments.fig21_22 import RELAXATIONS
from repro.generators.qaoa import qaoa_random, qaoa_regular
from repro.generators.qsim import qsim_random

#: Compile seed of every job (the library default of ``compile_on``).
COMPILE_SEED = 7

@dataclass(frozen=True)
class Job:
    """One named compile of the workload: what the caller asks for."""

    name: str
    job: CompileJob

    @property
    def circuit(self) -> QuantumCircuit:
        return self.job.circuit


def _job(
    name: str, circuit: QuantumCircuit, config=None, label=None
) -> Job:
    options = CompileOptions(
        raa=raa_for(circuit), config=config, seed=COMPILE_SEED, label=label
    )
    return Job(name, CompileJob("Atomique", circuit, options))


def _subseeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, count)]


#: QAOA-rand-200 instances per flagship seed.  The compile time of one
#: graph differs from another's by up to 40% (SABRE's swaps and the
#: router's stages vary with the graph), so the mean over three graphs
#: still moved by about a tenth from seed to seed; six halve that variance.
FLAGSHIP_GRAPHS = 6


def flagship_jobs(seed: int, size: str) -> list[Job]:
    """QAOA-rand-200 (edge probability 0.5): the paper's largest dense case."""
    n = 200 if size == "full" else 24
    jobs = []
    for i, sub in enumerate(_subseeds(seed, FLAGSHIP_GRAPHS)):
        circuit = qaoa_random(n, seed=sub)
        jobs.append(_job(f"{i}-{circuit.name}", circuit))
    return jobs


def sweep_jobs(seed: int, size: str) -> list[Job]:
    """A Fig. 22-style grid: four medium circuits x the four relaxations."""
    s = _subseeds(seed, 4)
    if size == "full":
        circuits = [
            qaoa_random(100, edge_prob=0.05, seed=s[0]),
            qsim_random(100, seed=s[1]),
            qaoa_regular(200, 6, seed=s[2]),
            random_circuit(30, 40, 4, seed=s[3]),
        ]
    else:
        circuits = [
            qaoa_random(16, edge_prob=0.3, seed=s[0]),
            random_circuit(12, 10, 3, seed=s[3]),
        ]
    # Relaxation-major order: a circuit's first job finishes before its
    # next one starts, so each circuit's prefix is compiled once.
    jobs = []
    for label, toggles in RELAXATIONS:
        config = AtomiqueConfig(
            seed=COMPILE_SEED, router=RouterConfig(toggles=toggles)
        )
        for circuit in circuits:
            jobs.append(_job(f"{circuit.name}|{label}", circuit, config, label))
    return jobs


def program_jobs(seed: int, size: str) -> list[Job]:
    """Deep-narrow random circuits, compiled keeping the program, so each
    reply carries a bulk payload.  The 10- and 12-qubit ones are small
    enough for the statevector check."""
    sizes = [10, 12, 20, 22, 24, 26, 28, 30] if size == "full" else [10, 12]
    jobs = []
    for i, (n, sub) in enumerate(zip(sizes, _subseeds(seed, len(sizes)))):
        circuit = random_circuit(n, 50 if size == "full" else 12, 3, seed=sub)
        jobs.append(_job(f"{i:02d}-{circuit.name}", circuit))
    return jobs


def warm_jobs(seed: int) -> list[Job]:
    """Extra tiny jobs used only to reach every shard during set-up."""
    return [
        _job(f"warm{i:02d}", qaoa_random(6, edge_prob=0.5, seed=sub))
        for i, sub in enumerate(_subseeds((seed + 1_000_003) % 2**32, 64))
    ]


BUILDERS = {
    "flagship": flagship_jobs,
    "sweep": sweep_jobs,
    "service-program": program_jobs,
}


def build(workload: str, seed: int, size: str) -> list[Job]:
    # numpy seeds must be non-negative; fold any integer into range
    return BUILDERS[workload](seed % 2**32, size)
