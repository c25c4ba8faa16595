"""Reference router that rebuilds its frontiers by per-sweep rescans.

:meth:`HighParallelismRouter.route` keeps its 1Q worklist and 2Q frontier
incrementally, from the newly-unlocked indices ``dag.execute`` returns.
:class:`RescanRouter` is the historical loop it replaced: every sweep asks
the DAG for ``front_indices()`` and filters it.  Gate selection
(``_select_gates``), movement emission (``MovementTracker.bind_store``) and
the store (``ProgramStore``) are the library's own, so the two routers
differ only in frontier bookkeeping and must emit byte-identical programs.
The wall-clock fields stay 0.0: they are measurements, not outputs.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import DAGCircuit
from repro.core.movement import MovementTracker
from repro.core.program import ProgramStore
from repro.core.router import HighParallelismRouter, RoutingError


class RescanRouter(HighParallelismRouter):
    """:class:`HighParallelismRouter` with per-sweep ``front_indices()`` scans."""

    def route(self, circuit: QuantumCircuit) -> ProgramStore:
        dag = DAGCircuit(circuit)
        tracker = MovementTracker(
            architecture=self.architecture,
            locations=self.locations,
            params=self.architecture.params,
            cooling_threshold=self.config.cooling_threshold,
        )
        store = ProgramStore(num_qubits=circuit.num_qubits)
        emit_stage = tracker.bind_store(store)
        gates = dag.gates
        trials = max(1, self.config.ordering_trials)
        overlap_rejections = 0

        while not dag.done:
            while True:
                todo = [i for i in dag.front_indices() if dag.one_qubit[i]]
                if not todo:
                    break
                for i in todo:
                    g = gates[i]
                    store.raman_qubit.append(g.qubits[0])
                    store.raman_name.append(g.name)
                    store.raman_params.append(g.params)
                for i in todo:
                    dag.execute(i)

            front_2q = [
                (i, gates[i]) for i in dag.front_indices() if dag.two_qubit[i]
            ]
            if not front_2q:
                if store.open_raman_count:
                    store.end_stage()
                if dag.done:
                    break
                raise RoutingError("front layer stuck without 2Q gates")

            rng = (
                np.random.default_rng(self.config.seed + store.num_stages)
                if trials > 1
                else None
            )
            best = None
            for trial in range(trials):
                ordering = list(front_2q)
                if trial > 0:
                    rng.shuffle(ordering)
                plan, chosen, rejections = self._select_gates(ordering)
                if best is None or len(chosen) > len(best[1]):
                    best = (plan, chosen, rejections)
                if len(chosen) == len(front_2q):
                    break
            plan, chosen, rejections = best
            overlap_rejections += rejections
            if not chosen:
                raise RoutingError(
                    "router stalled: no frontier gate is schedulable even alone"
                )

            emit_stage(plan.row_maps, plan.col_maps)
            for _i, g, site in chosen:
                qa, qb = g.qubits
                store.gate_a.append(qa)
                store.gate_b.append(qb)
                store.gate_site_r.append(site[0])
                store.gate_site_c.append(site[1])
                store.gate_n_vib.append(gate_n_vib(tracker, qa, qb))
                store.gate_name.append(g.name)
                store.gate_params.append(g.params)
            for ev in tracker.maybe_cool():
                store.cool_aod.append(ev.aod)
                store.cool_atoms.append(ev.num_atoms)
            store.end_stage()
            for i, _g, _site in chosen:
                dag.execute(i)

        store.qubit_locations = dict(self.locations)
        store.n_vib_final = {q: tracker.n_vib[q] for q in self.locations}
        store.atom_loss_log = list(tracker.loss_samples)
        store.overlap_rejections = overlap_rejections
        return store


def gate_n_vib(tracker: MovementTracker, qubit_a: int, qubit_b: int) -> float:
    """Effective n_vib of a gate pair (Sec. IV, Eq. 2 convention).

    AOD-SLM pairs use the AOD atom's n_vib; AOD-AOD pairs sum both, in
    ``(a, b)`` order.
    """
    locs = tracker.locations
    total = 0.0
    if locs[qubit_a].is_aod:
        total += tracker.n_vib[qubit_a]
    if locs[qubit_b].is_aod:
        total += tracker.n_vib[qubit_b]
    return total
