"""Differential: program consumers over ProgramStore columns vs a view walk.

The Monte Carlo noise simulator consumes ``atom_loss_log`` *positionally* —
one sample per (atom, move) event, matched against each stage's
``atom_move_distance`` entries in iteration order.  The simulator, replay
and fidelity scoring slice or fold the store's columns; these tests pin
them against the stage-view walks of :mod:`tests.program_walk_oracle`
event by event on hypothesis-generated circuits: same event kinds, same
stage indices, same atoms, and bit-identical probabilities — which is only
possible if the loss-sample stream lines up positionally.
"""

from unittest import mock

from hypothesis import given, settings

from repro.core.atom_mapper import map_qubits_to_atoms
from repro.core.program import ProgramStore
from repro.core.router import HighParallelismRouter, RouterConfig
from repro.hardware import RAAArchitecture
from repro.noise import estimate_raa_fidelity
from repro.sim import noisy, program_to_circuit
from repro.sim.noisy import _stage_events, analytic_reference, run_monte_carlo
from tests.program_walk_oracle import (
    walk_fidelity,
    walk_replay,
    walk_stage_events,
)
from tests.strategies import inter_array_circuits


def route_store(circ, assignment, cooling_threshold=None):
    arch = RAAArchitecture.default(side=6, num_aods=2)
    locs = map_qubits_to_atoms(circ, assignment, arch)
    router = HighParallelismRouter(
        arch, locs, RouterConfig(cooling_threshold=cooling_threshold)
    )
    return router.route(circ), arch


@settings(max_examples=40, deadline=None)
@given(inter_array_circuits())
def test_stage_events_identical_over_store_and_objects(circ_assignment):
    circ, assignment = circ_assignment
    store, arch = route_store(circ, assignment)
    assert isinstance(store, ProgramStore)
    # tuple equality is bitwise on the float probabilities: the loss events
    # in particular only match if the per-stage atom order consumed the
    # loss-sample stream at identical positions
    assert _stage_events(store, arch.params) == walk_stage_events(
        store, arch.params
    )


@settings(max_examples=15, deadline=None)
@given(inter_array_circuits())
def test_monte_carlo_identical_over_store_and_objects(circ_assignment):
    circ, assignment = circ_assignment
    store, arch = route_store(circ, assignment)
    a = run_monte_carlo(store, arch.params, trials=64, seed=5, keep_outcomes=True)
    reference = analytic_reference(store, arch.params)
    with mock.patch.object(noisy, "_stage_events", walk_stage_events):
        b = run_monte_carlo(
            store, arch.params, trials=64, seed=5, keep_outcomes=True
        )
        assert reference == analytic_reference(store, arch.params)
    assert a.successes == b.successes
    assert a.outcomes == b.outcomes


@settings(max_examples=10, deadline=None)
@given(inter_array_circuits(min_qubits=6, max_qubits=9, max_gates=30))
def test_events_identical_with_cooling(circ_assignment):
    """A tiny cooling threshold forces cooling events into the program, so
    the differential also covers the cooling-CZ event expansion."""
    circ, assignment = circ_assignment
    store, arch = route_store(circ, assignment, cooling_threshold=1e-6)
    if store.num_cooling_events:
        assert [c for s in store.stages for c in s.cooling]
    assert _stage_events(store, arch.params) == walk_stage_events(
        store, arch.params
    )


@settings(max_examples=15, deadline=None)
@given(inter_array_circuits(min_qubits=6, max_qubits=9, max_gates=30))
def test_replay_and_fidelity_identical_over_store_and_objects(circ_assignment):
    circ, assignment = circ_assignment
    store, arch = route_store(circ, assignment, cooling_threshold=1e-6)
    assert program_to_circuit(store).gates == walk_replay(store).gates
    assert estimate_raa_fidelity(store, arch.params) == walk_fidelity(
        store, arch.params
    )
