"""Worklist-vs-rescan differential tests for the router frontiers.

The router maintains its 1Q worklist and 2Q frontier incrementally from
the newly-unlocked indices ``dag.execute`` returns; the historical
reference loop rebuilds both per sweep with ``front_indices()`` rescans
and is kept behind ``RouterConfig.front_rescan``.  These tests pin the
two modes to *byte-identical* v2 serializations — not just equal stage
counts — on the golden-corpus generators and on hypothesis-generated
1Q-heavy circuits, so any drift in emitted-pulse order is an immediate
failure.
"""

from dataclasses import replace

from hypothesis import given, settings

from repro.core import AtomiqueCompiler, AtomiqueConfig
from repro.core.atom_mapper import map_qubits_to_atoms
from repro.core.router import HighParallelismRouter, RouterConfig
from repro.core.serialize import dumps
from repro.generators import qaoa_random, qsim_random
from repro.generators.algorithms import bernstein_vazirani
from repro.hardware import RAAArchitecture
from tests.strategies import one_q_heavy_inter_array_circuits


def canonical_bytes(program) -> bytes:
    """v2 serialization with the wall-clock fields zeroed (they are the
    only legitimately nondeterministic part of the output)."""
    program.compile_seconds = 0.0
    program.emit_seconds = 0.0
    program.probe_seconds = 0.0
    return dumps(program).encode()


def compile_both_ways(circuit):
    """Serialize one circuit routed with the worklist and with rescans."""
    out = []
    for rescan in (False, True):
        compiler = AtomiqueCompiler(
            RAAArchitecture.default(side=4, num_aods=2),
            AtomiqueConfig(seed=7),
        )
        compiler.config.router = replace(
            compiler.config.router, front_rescan=rescan
        )
        result = compiler.compile(circuit)
        out.append(canonical_bytes(result.program))
    return out


class TestWorklistDifferential:
    """Full-pipeline byte identity over the golden-corpus generators."""

    def test_qaoa_matches_rescan(self):
        worklist, rescan = compile_both_ways(qaoa_random(10, seed=10))
        assert worklist == rescan

    def test_qsim_matches_rescan(self):
        worklist, rescan = compile_both_ways(qsim_random(10, seed=10))
        assert worklist == rescan

    def test_bv_matches_rescan(self):
        # BV is 1Q-dominated: a long H/X prolog and epilog around a CX
        # chain, the worst case for 1Q-worklist ordering bugs.
        worklist, rescan = compile_both_ways(bernstein_vazirani(12))
        assert worklist == rescan


@given(one_q_heavy_inter_array_circuits())
@settings(max_examples=40, deadline=None)
def test_worklist_matches_rescan_on_1q_heavy_circuits(data):
    """Direct-routing byte identity on circuits where bursts of 1Q gates
    unlock mid-route (the exact traffic the incremental worklist
    reorders if its drain order ever diverges from the rescan's)."""
    circ, assignment = data
    arch = RAAArchitecture.default(side=6, num_aods=2)
    locs = map_qubits_to_atoms(circ, assignment, arch)
    blobs = []
    for rescan in (False, True):
        router = HighParallelismRouter(
            arch, locs, RouterConfig(front_rescan=rescan)
        )
        blobs.append(canonical_bytes(router.route(circ)))
    assert blobs[0] == blobs[1]
