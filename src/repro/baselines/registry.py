"""Unified backend registry: every compiler under its Fig. 13 name.

Each backend is a callable ``(circuit, options) -> CompiledMetrics``
registered with the :func:`register_backend` decorator.  The experiment
harnesses dispatch through :func:`get_backend` instead of hard-coded
if/elif chains, so a new scenario backend plugs in with one decorator:

    from repro.baselines.registry import CompileOptions, register_backend

    @register_backend("My-Backend")
    def _my_backend(circuit, options):
        return ...  # CompiledMetrics

:class:`CompileOptions` carries the knobs a backend may consume — an RAA
architecture and Atomique config for the movement-based compilers, a
hardware-parameter override for the fixed-atom baselines, and the seed.
Backends ignore options that do not apply to them.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from ..analysis.metrics import CompiledMetrics
from ..circuits.circuit import QuantumCircuit
from ..core.compiler import AtomiqueCompiler, AtomiqueConfig, CompileResult
from ..core.pipeline import PipelineCache
from ..core.router import RouterConfig
from ..hardware.parameters import HardwareParams
from ..hardware.raa import RAAArchitecture
from ..noise.fidelity import FidelityReport
from .atomique_adapter import compile_on_atomique
from .faa_compiler import compile_on_faa
from .geyser import atomique_pulse_count, geyser_pulse_count
from .qpilot import compile_on_qpilot, compile_qsim_on_qpilot
from .superconducting import compile_on_superconducting


@dataclass(frozen=True)
class CompileOptions:
    """Per-job compile knobs, uniform across backends.

    ``label`` overrides the architecture label on the emitted metrics (the
    ablation sweeps name each configuration).  ``extra`` is a frozen
    ``((key, value), ...)`` tuple of backend-specific knobs — e.g. the
    solver proxies' qubit budget or Q-Pilot's QSim Pauli strings — that
    participates in batch-cache keys.  ``pipeline_cache`` shares Atomique
    pipeline prefix artifacts across the jobs of one in-process sweep; it
    is identity-state, so it is excluded from comparison/repr and stripped
    before jobs are shipped to worker processes.
    """

    raa: RAAArchitecture | None = None
    config: AtomiqueConfig | None = None
    params: HardwareParams | None = None
    seed: int = 7
    label: str | None = None
    extra: tuple[tuple[str, object], ...] = ()
    pipeline_cache: "PipelineCache | None" = field(
        default=None, compare=False, repr=False
    )

    def extra_dict(self) -> dict[str, object]:
        return dict(self.extra)


BackendFn = Callable[[QuantumCircuit, CompileOptions], CompiledMetrics]


@dataclass(frozen=True)
class BackendSpec:
    """A registered compiler: name, entry point, one-line description."""

    name: str
    fn: BackendFn
    description: str = ""

    def compile(
        self, circuit: QuantumCircuit, options: CompileOptions | None = None
    ) -> CompiledMetrics:
        return self.fn(circuit, options or CompileOptions())


_REGISTRY: dict[str, BackendSpec] = {}


def register_backend(
    name: str, description: str = ""
) -> Callable[[BackendFn], BackendFn]:
    """Decorator registering a compile entry point under *name*."""

    def decorator(fn: BackendFn) -> BackendFn:
        if name in _REGISTRY:
            raise ValueError(f"backend {name!r} is already registered")
        doc = description or (fn.__doc__ or "").strip().split("\n", 1)[0]
        _REGISTRY[name] = BackendSpec(name=name, fn=fn, description=doc)
        return fn

    return decorator


def get_backend(name: str) -> BackendSpec:
    """Look up a registered backend; unknown names list what exists."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(
            f"unknown backend {name!r}; registered backends: {known}"
        ) from None


def available_backends() -> list[str]:
    """Sorted names of every registered backend."""
    return sorted(_REGISTRY)


# --------------------------------------------------------------------------
# Built-in backends (Fig. 13 names, plus the Fig. 19 / Table III compilers).


def _atomique_setup(
    options: CompileOptions,
) -> tuple[RAAArchitecture | None, AtomiqueConfig]:
    """Resolve the effective (architecture, config) for an Atomique run.

    A ``params`` override (the Fig. 18 sensitivity knob) rebuilds the RAA
    with those parameters and, unless a config is given, aligns the
    router's cooling threshold with them.
    """
    raa = options.raa
    config = options.config
    if options.params is not None:
        base = raa or RAAArchitecture.default()
        raa = RAAArchitecture(
            slm_shape=base.slm_shape,
            aod_shapes=base.aod_shapes,
            params=options.params,
        )
        if config is None:
            config = AtomiqueConfig(
                seed=options.seed,
                router=RouterConfig(
                    cooling_threshold=options.params.n_vib_cooling_threshold
                ),
            )
    return raa, config or AtomiqueConfig(seed=options.seed)


def atomique_result(
    circuit: QuantumCircuit, options: CompileOptions
) -> CompileResult:
    """The full :class:`CompileResult` (program included) for *options*.

    Same setup path as the registered ``Atomique`` backend, so
    ``metrics_from_result`` on this result is bit-identical to what the
    backend returns — the service's ``keep_program`` jobs compile through
    here to capture the program without perturbing the metrics.
    """
    raa, config = _atomique_setup(options)
    arch = raa or RAAArchitecture.default()
    compiler = AtomiqueCompiler(arch, config, cache=options.pipeline_cache)
    return compiler.compile(circuit)


@register_backend("Atomique")
def _atomique(circuit: QuantumCircuit, options: CompileOptions) -> CompiledMetrics:
    """Full Fig. 3 pass pipeline on a reconfigurable atom array.

    A ``params`` override (the Fig. 18 sensitivity knob) rebuilds the RAA
    with those parameters and, unless a config is given, aligns the
    router's cooling threshold with them (see :func:`_atomique_setup`).
    """
    raa, config = _atomique_setup(options)
    return compile_on_atomique(
        circuit,
        raa,
        config,
        label=options.label or "Atomique",
        cache=options.pipeline_cache,
    )


@register_backend("Superconducting")
def _superconducting(
    circuit: QuantumCircuit, options: CompileOptions
) -> CompiledMetrics:
    """SABRE on IBM Washington's heavy-hex graph (Sec. V-A baseline 1)."""
    return compile_on_superconducting(
        circuit, params=options.params, seed=options.seed
    )


@register_backend("FAA-Rectangular")
def _faa_rectangular(
    circuit: QuantumCircuit, options: CompileOptions
) -> CompiledMetrics:
    """SABRE on a fixed rectangular atom grid (Sec. V-A baseline 2)."""
    return compile_on_faa(
        circuit, "rectangular", params=options.params, seed=options.seed
    )


@register_backend("FAA-Triangular")
def _faa_triangular(
    circuit: QuantumCircuit, options: CompileOptions
) -> CompiledMetrics:
    """SABRE on Geyser's fixed triangular atom grid (Sec. V-A baseline 3)."""
    return compile_on_faa(
        circuit, "triangular", params=options.params, seed=options.seed
    )


@register_backend("Baker-Long-Range")
def _baker_long_range(
    circuit: QuantumCircuit, options: CompileOptions
) -> CompiledMetrics:
    """Baker et al.'s long-range FAA compiler (Sec. V-A baseline 4)."""
    return compile_on_faa(
        circuit, "long_range", params=options.params, seed=options.seed
    )


@register_backend("Q-Pilot")
def _qpilot(circuit: QuantumCircuit, options: CompileOptions) -> CompiledMetrics:
    """Flying-ancilla compilation for commuting workloads (Fig. 19)."""
    return compile_on_qpilot(circuit, seed=options.seed)


@register_backend("Tan-Solver")
def _tan_solver(circuit: QuantumCircuit, options: CompileOptions) -> CompiledMetrics:
    """Exhaustive MAX CUT solver proxy (Fig. 14 / Table II last column).

    Raises :class:`~repro.baselines.solver.SolverTimeout` past its qubit
    budget (``extra`` knob ``solver_qubit_limit``, default 20) exactly like
    the direct entry point; batch callers should pre-filter jobs with
    :func:`~repro.baselines.solver.solver_times_out`.
    """
    from .solver import solver_architecture, tan_solver_compile

    limit = int(options.extra_dict().get("solver_qubit_limit", 20))
    return tan_solver_compile(
        circuit,
        options.raa or solver_architecture(),
        timeout_qubits=limit,
        seed=options.seed,
    )


@register_backend("Tan-IterP")
def _tan_iterp(circuit: QuantumCircuit, options: CompileOptions) -> CompiledMetrics:
    """Iterative-peeling solver proxy (Fig. 14)."""
    from .solver import solver_architecture, tan_iterp_compile

    return tan_iterp_compile(
        circuit, options.raa or solver_architecture(), seed=options.seed
    )


@register_backend("Q-Pilot-QSim")
def _qpilot_qsim(circuit: QuantumCircuit, options: CompileOptions) -> CompiledMetrics:
    """Q-Pilot's fanout-tree QSim path, driven by Pauli strings.

    The strings travel in ``extra`` under ``qsim_strings`` (a tuple, so the
    options stay hashable and batch-cache keyable); the circuit supplies
    the register size and benchmark name.
    """
    strings = options.extra_dict().get("qsim_strings")
    if strings is None:
        raise ValueError(
            "Q-Pilot-QSim needs extra=(('qsim_strings', <tuple of paulis>),)"
        )
    return compile_qsim_on_qpilot(
        circuit.num_qubits, list(strings), name=circuit.name, seed=options.seed
    )


@register_backend("Geyser")
def _geyser(circuit: QuantumCircuit, options: CompileOptions) -> CompiledMetrics:
    """Geyser pulse-count model (Table III): blocking into 3-qubit pulses.

    Geyser's published artifact only yields pulse counts, so the record
    carries the input circuit's gate statistics plus ``extras['pulses']``
    (and the Atomique pulse count for the same 2Q volume, for Table III
    ratios); the fidelity report is a neutral all-ones placeholder.
    """
    pulses = geyser_pulse_count(circuit, seed=options.seed)
    return CompiledMetrics(
        benchmark=circuit.name,
        architecture="Geyser",
        num_qubits=circuit.num_qubits,
        num_2q_gates=circuit.num_2q_gates,
        num_1q_gates=circuit.num_1q_gates,
        depth=circuit.depth(two_qubit_only=True),
        fidelity=FidelityReport(),
        extras={
            "pulses": float(pulses),
            "atomique_pulses_same_2q": float(
                atomique_pulse_count(circuit.num_2q_gates)
            ),
        },
    )
