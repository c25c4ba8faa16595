"""The Atomique compiler facade (Fig. 3 pipeline).

``AtomiqueCompiler.compile(circuit)`` runs the full flow:

1. lower the input to the RAA native basis ``{CZ, U3}``;
2. **qubit-array mapper** — greedy MAX k-cut over the gate-frequency graph
   (Algorithm 1) assigns each qubit to the SLM or one of the AODs;
3. **SWAP insertion** — SABRE over the complete multipartite coupling graph
   resolves the remaining intra-array gates (Fig. 5), then inserted SWAPs
   are decomposed to 3 CZ + 1Q;
4. **qubit-atom mapper** — load-balance SLM placement + aligned AOD
   placement (Figs. 6-7);
5. **high-parallelism router** — stages of parallel 2Q gates under the
   three movement constraints (Figs. 8-11), with heating/cooling tracking.

Each step is a :class:`~repro.core.pipeline.Pass`; the facade just builds
the default :class:`~repro.core.pipeline.PassPipeline` and runs it.  The
result bundles the executable
:class:`~repro.core.program.ProgramStore` with every statistic the
evaluation reads, including per-pass wall-time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..circuits.circuit import QuantumCircuit
from ..hardware.raa import AtomLocation, RAAArchitecture
from .pipeline import PassPipeline, PipelineCache
from .program import ProgramStore
from .router import RouterConfig


@dataclass
class AtomiqueConfig:
    """All compiler knobs in one place.

    Attributes
    ----------
    gamma:
        Layer-decay factor of the gate-frequency graph (Sec. III-A).
    array_mapper / atom_mapper:
        ``"maxkcut"``/``"dense"`` and ``"loadbalance"``/``"random"`` —
        the second options are the Fig. 21 ablation baselines.
    router:
        Constraint toggles, serial mode, cooling threshold.
    seed:
        Seed for SABRE tie-breaking and the random atom-mapper ablation.
    """

    gamma: float = 0.95
    array_mapper: str = "maxkcut"
    atom_mapper: str = "loadbalance"
    router: RouterConfig = field(default_factory=RouterConfig)
    seed: int = 7


@dataclass
class CompileResult:
    """Everything the evaluation harness reads from one compile.

    ``final_layout`` maps each logical qubit to the slot where SWAP
    insertion left it at the end of the circuit — needed to interpret
    measurement outcomes and to verify semantic equivalence.  It is
    ``None`` only for partial pipeline runs that skipped SWAP insertion.

    ``pass_seconds`` maps each pipeline pass name to its wall-clock time,
    in execution order (the Fig. 21 compile-time breakdown reads this).
    """

    program: ProgramStore
    transpiled: QuantumCircuit
    array_of_qubit: list[int]
    locations: dict[int, AtomLocation]
    num_swaps: int
    compile_seconds: float
    architecture: RAAArchitecture
    final_layout: dict[int, int] | None = None
    pass_seconds: dict[str, float] = field(default_factory=dict)

    # -- headline metrics (paper's reporting vocabulary) -----------------------

    @property
    def num_2q_gates(self) -> int:
        return self.program.num_2q_gates

    @property
    def num_1q_gates(self) -> int:
        return self.program.num_1q_gates

    @property
    def depth(self) -> int:
        """Number of parallel two-qubit layers (Rydberg stages)."""
        return self.program.two_qubit_depth

    @property
    def additional_cnots(self) -> int:
        """CNOTs added by SWAP insertion (Fig. 25): 3 per SWAP."""
        return 3 * self.num_swaps

    def execution_time(self) -> float:
        return self.program.execution_time(self.architecture.params)

    def avg_move_distance(self) -> float:
        return self.program.avg_move_distance(self.architecture.params)

    def total_move_distance(self) -> float:
        return self.program.total_move_distance(self.architecture.params)

    def remap_counts(self, counts: dict[str, int]) -> dict[str, int]:
        """Undo the SWAP-induced output permutation on measured bitstrings.

        Hardware measures the physical slots; ``final_layout`` says where
        each logical qubit ended up, so logical bit *q* of the corrected
        string is physical bit ``final_layout[q]`` of the raw string.
        """
        if self.final_layout is None:
            raise ValueError(
                "final_layout is missing from this CompileResult — the "
                "pipeline that produced it did not run SWAP insertion "
                "(partial run), so measured bitstrings cannot be remapped"
            )
        n = self.transpiled.num_qubits
        out: dict[str, int] = {}
        for bits, count in counts.items():
            if len(bits) != n:
                raise ValueError(
                    f"bitstring {bits!r} does not match {n} qubits"
                )
            corrected = "".join(bits[self.final_layout[q]] for q in range(n))
            out[corrected] = out.get(corrected, 0) + count
        return out


class AtomiqueCompiler:
    """Compile quantum circuits for a reconfigurable atom array.

    ``cache`` optionally shares a :class:`~repro.core.pipeline.PipelineCache`
    across compiles, so runs agreeing on a (circuit, array-mapping) prefix —
    e.g. a router-toggle sweep — reuse the lowered circuit, array mapping,
    SABRE artifact, and atom placement instead of recomputing them.
    """

    def __init__(
        self,
        architecture: RAAArchitecture | None = None,
        config: AtomiqueConfig | None = None,
        cache: PipelineCache | None = None,
    ) -> None:
        self.architecture = architecture or RAAArchitecture.default()
        self.config = config or AtomiqueConfig()
        self.cache = cache

    def pipeline(self) -> PassPipeline:
        """The default five-pass Fig. 3 pipeline for this compiler."""
        return PassPipeline(self.architecture, self.config, cache=self.cache)

    def compile(self, circuit: QuantumCircuit) -> CompileResult:
        """Run the full Fig. 3 pipeline on *circuit*."""
        return self.pipeline().compile(circuit)
