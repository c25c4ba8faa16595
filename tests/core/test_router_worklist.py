"""Worklist-vs-rescan differential tests for the router frontiers.

The router maintains its 1Q worklist and 2Q frontier incrementally from
the newly-unlocked indices ``dag.execute`` returns; the historical
reference loop, which rebuilds both per sweep with ``front_indices()``
rescans, lives in :mod:`tests.router_rescan_oracle`.  These tests pin the
two to *byte-identical* v2 serializations — not just equal stage counts —
on the golden-corpus generators and on hypothesis-generated 1Q-heavy
circuits, so any drift in emitted-pulse order is an immediate failure.
"""

from hypothesis import given, settings

from repro.core import AtomiqueCompiler, AtomiqueConfig
from repro.core.atom_mapper import map_qubits_to_atoms
from repro.core.router import HighParallelismRouter, RouterConfig
from repro.core.serialize import dumps
from repro.generators import qaoa_random, qsim_random
from repro.generators.algorithms import bernstein_vazirani
from repro.hardware import RAAArchitecture
from tests.router_rescan_oracle import RescanRouter
from tests.strategies import one_q_heavy_inter_array_circuits


def canonical_bytes(program) -> bytes:
    """v2 serialization with the wall-clock fields zeroed (they are the
    only legitimately nondeterministic part of the output)."""
    program.compile_seconds = 0.0
    program.emit_seconds = 0.0
    return dumps(program).encode()


def compile_both_ways(circuit):
    """Serialize one circuit as the pipeline routes it (worklist) and as
    the rescan oracle routes the same transpiled circuit and placement."""
    result = AtomiqueCompiler(
        RAAArchitecture.default(side=4, num_aods=2),
        AtomiqueConfig(seed=7),
    ).compile(circuit)
    oracle = RescanRouter(
        result.architecture, result.locations, AtomiqueConfig(seed=7).router
    )
    return (
        canonical_bytes(result.program),
        canonical_bytes(oracle.route(result.transpiled)),
    )


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
    blobs = [
        canonical_bytes(router_cls(arch, locs, RouterConfig()).route(circ))
        for router_cls in (HighParallelismRouter, RescanRouter)
    ]
    assert blobs[0] == blobs[1]
