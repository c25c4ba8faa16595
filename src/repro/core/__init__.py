"""The Atomique compiler: array mapper, atom mapper, router, instructions."""

from .array_mapper import (
    cut_fraction,
    gate_frequency_matrix,
    map_qubits_to_arrays,
    max_k_cut_assignment,
)
from .atom_mapper import diagonal_stripe_order, map_qubits_to_atoms
from .blobs import cache_clear, cache_stats, evict_lru
from .compiler import AtomiqueCompiler, AtomiqueConfig, CompileResult
from .constraints import ConstraintToggles, StagePlan, parking_offset
from .kinematics import ConstantJerkProfile, hop_profile
from .instructions import CoolingEvent, Move, RamanPulse, RydbergGate
from .movement import MovementTracker
from .program import ProgramStore, StageList, StageView
from .pipeline import (
    PIPELINE_CACHE_VERSION,
    ArrayMapperPass,
    AtomMapperPass,
    CachedPass,
    CompilationContext,
    DiskPipelineCache,
    LowerToNativePass,
    Pass,
    PassPipeline,
    PipelineCache,
    PipelineError,
    SabreSwapPass,
    StageRouterPass,
    default_passes,
)
from .router import HighParallelismRouter, RouterConfig, RoutingError

__all__ = [
    "PIPELINE_CACHE_VERSION",
    "ArrayMapperPass",
    "AtomMapperPass",
    "AtomiqueCompiler",
    "AtomiqueConfig",
    "CachedPass",
    "CompilationContext",
    "CompileResult",
    "DiskPipelineCache",
    "ConstantJerkProfile",
    "ConstraintToggles",
    "CoolingEvent",
    "HighParallelismRouter",
    "LowerToNativePass",
    "Move",
    "MovementTracker",
    "Pass",
    "PassPipeline",
    "PipelineCache",
    "PipelineError",
    "ProgramStore",
    "RamanPulse",
    "RouterConfig",
    "RoutingError",
    "RydbergGate",
    "SabreSwapPass",
    "StageList",
    "StagePlan",
    "StageRouterPass",
    "StageView",
    "cache_clear",
    "cache_stats",
    "cut_fraction",
    "default_passes",
    "evict_lru",
    "diagonal_stripe_order",
    "gate_frequency_matrix",
    "hop_profile",
    "map_qubits_to_arrays",
    "map_qubits_to_atoms",
    "max_k_cut_assignment",
    "parking_offset",
]
