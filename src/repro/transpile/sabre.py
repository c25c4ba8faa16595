"""SABRE qubit mapping and routing (Li, Ding, Xie — ASPLOS 2019).

This is the SWAP-insertion engine used by every baseline in the paper
("All baselines are using Qiskit Optimization Level 3 with SABRE") and by
Atomique itself for intra-array conflicts on the complete multipartite
coupling graph (Sec. III-A, Fig. 5).

The implementation follows the published algorithm:

* the *front layer* holds 2Q gates with no unexecuted predecessors;
* executable gates (physically adjacent endpoints) are flushed greedily;
* otherwise the swap candidate set is every coupling edge touching a qubit
  of the front layer, scored by the sum of front-layer distances plus a
  weighted *extended set* lookahead, with a decay factor discouraging
  thrashing on recently swapped qubits;
* the initial layout is refined by forward/backward passes over the circuit
  (the "reverse traversal" trick from the paper).

Scoring is *incremental* (:class:`_IncrementalScorer`): front and extended
pair costs are running integer sums, and each candidate edge carries the
exact integer cost *delta* its swap would cause, read from per-qubit
distance rows with a few gathers, so a decision costs O(candidates) however
large the extended set is.  All bookkeeping is integer-exact, so the
floating-point scores — and therefore the chosen swap sequence — are
bit-identical to the naive rescoring loop (pinned by the golden corpus in
``tests/transpile/golden_sabre.json`` and per-decision differential tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.dag import DAGCircuit
from ..circuits.gates import Gate
from ..hardware.coupling import CouplingMap
from .layout import Layout

EXTENDED_SET_SIZE = 20
EXTENDED_SET_WEIGHT = 0.5
DECAY_INCREMENT = 0.001
DECAY_RESET_INTERVAL = 5


@dataclass
class SabreResult:
    """Output of a SABRE routing run.

    Attributes
    ----------
    circuit:
        Routed circuit on *physical* qubits; inserted SWAPs carry the name
        ``"swap"`` and can be counted/decomposed downstream.
    initial_layout / final_layout:
        Logical->physical maps before and after routing.
    num_swaps:
        Number of inserted SWAP gates.
    """

    circuit: QuantumCircuit
    initial_layout: Layout
    final_layout: Layout
    num_swaps: int = 0
    swap_gate_indices: list[int] = field(default_factory=list)


def _extended_set(dag: DAGCircuit, front: set[int], limit: int) -> list[int]:
    """Successor 2Q gates of the front layer, up to *limit* entries."""
    out: list[int] = []
    seen: set[int] = set()
    queue = sorted(front)
    qi = 0
    while qi < len(queue) and len(out) < limit:
        node = queue[qi]
        qi += 1
        for succ in dag.successors[node]:
            if succ in seen:
                continue
            seen.add(succ)
            if dag.gates[succ].is_two_qubit:
                out.append(succ)
                if len(out) >= limit:
                    break
            queue.append(succ)
    return out


class _IncrementalScorer:
    """Delta-scored swap candidates over numpy index arrays.

    One instance lives for the duration of a :func:`sabre_route` call and
    owns the logical<->physical position arrays.  The candidate set is the
    coupling edges touching a physical qubit of the front layer, read off
    the coupling map's upper-triangular edge mask so they come out sorted
    by ``(p1, p2)``; each candidate stores the *integer* change its swap
    would make to the summed front / extended-set distances.

    Both deltas come from *host rows*.  A pair ``(h, w)`` hosted at
    physical qubit ``h`` contributes the row ``dist[w]`` — its distance if
    ``h`` moved to each position while ``w`` stayed — so swapping
    ``(s1, s2)`` changes the cost by

        ``H[s1, s2] - H[s1, s1] + H[s2, s1] - H[s2, s2]``

    summed over the pairs hosted at ``s1`` and ``s2``, except for a pair
    whose endpoints are exactly ``{s1, s2}``: its distance is unchanged but
    the four gathers subtracted it twice.  Front-layer gates are pairwise
    qubit-disjoint, so each front row is the single ``dist`` row of the
    qubit's partner and that case is a masked correction.  Extended-set
    pairs may share qubits and repeat, so their rows are summed per host
    qubit (at most ``2 * EXTENDED_SET_SIZE`` rows) and each pair also adds
    ``dist[h, w]`` at column ``w``, which folds the correction into the
    rows.  Rescoring every candidate is a handful of gathers over the
    candidate arrays, independent of the extended-set size.

    An *epoch* spans the decisions between two front-layer changes:
    :meth:`begin_epoch` rebuilds the pair structures and scores every
    candidate; :meth:`commit` applies a chosen swap, rebuilds the candidate
    set only when front membership moved and refills the extended-set rows
    only when an extended-set endpoint moved, then rescores.
    """

    def __init__(self, coupling: CouplingMap, l2p: np.ndarray) -> None:
        n = coupling.num_qubits
        self._n = n
        # int64 distances padded with a zero row and column, which index -1
        # (no partner) reaches, so absent partners gather zeros.
        dist = np.zeros((n + 1, n + 1), dtype=np.int64)
        dist[:n, :n] = coupling.distance_matrix()
        self._dist = dist
        self._dflat = dist.ravel()
        self._fdist = dist.astype(np.float64)
        self._upper = coupling.edge_mask()
        self.l2p = l2p
        self.p2l = np.full(n, -1, dtype=np.int64)
        present = l2p >= 0
        self.p2l[l2p[present]] = np.flatnonzero(present)
        #: physical -> its single front partner's physical position (or -1)
        self._partner = np.full(n, -1, dtype=np.int64)
        #: physical hosts a front-layer qubit
        self._active = np.zeros(n, dtype=bool)
        #: physical -> its row in ``_ext_rows``; 0 (an all-zero row) when it
        #: hosts no extended-set endpoint
        self._ext_row = np.zeros(n, dtype=np.int64)
        self._E = 0
        self._F = 0

    # -- helpers ---------------------------------------------------------------

    def _set_candidates(self) -> None:
        """Candidate edges from the front membership mask, sorted."""
        act = self._active
        codes = np.flatnonzero(self._upper & (act[:, None] | act[None, :]))
        self._cp1, self._cp2 = np.divmod(codes, self._n)

    def _fill_ext_rows(self) -> None:
        """Refill the extended-set host rows from the current positions."""
        host = self.l2p[self._slot_host]
        partner = self.l2p[self._slot_partner]
        x = self._fdist[partner]
        x[self._slots, partner] = self._fdist[host, partner]
        # Summing slots into host rows through a 0/1 matrix product is exact:
        # every partial sum is an integer far below 2**53.
        self._ext_rows.reshape(-1, self._n + 1)[1:] = self._slot_sum @ x

    def _swap_delta(
        self, rows: np.ndarray, r1: np.ndarray, r2: np.ndarray
    ) -> np.ndarray:
        """``H[s1, s2] - H[s1, s1] + H[s2, s1] - H[s2, s2]`` per candidate,
        given the flat offsets *r1*, *r2* of each endpoint's row."""
        s1, s2 = self._cp1, self._cp2
        return rows[r1 + s2] - rows[r1 + s1] + rows[r2 + s1] - rows[r2 + s2]

    def _rescore(self) -> None:
        stride = self._n + 1
        s1, s2 = self._cp1, self._cp2
        w1 = self._partner[s1]
        self._dfront = self._swap_delta(
            self._dflat, w1 * stride, self._partner[s2] * stride
        )
        pair = np.flatnonzero(w1 == s2)
        self._dfront[pair] += 2 * self._dflat[s1[pair] * stride + s2[pair]]
        row = self._ext_row
        self._dext = self._swap_delta(
            self._ext_rows, row[s1] * stride, row[s2] * stride
        )

    # -- epoch lifecycle -------------------------------------------------------

    def begin_epoch(
        self,
        front_pairs: list[tuple[int, ...]],
        ext_pairs: list[tuple[int, ...]],
    ) -> None:
        """Rebuild pair structures and score every candidate from scratch."""
        l2p = self.l2p
        dist = self._dist
        front = l2p[np.array(front_pairs, dtype=np.int64).reshape(-1, 2)]
        pfa, pfb = front[:, 0], front[:, 1]
        self._F = len(front_pairs)
        self._base_front = int(dist[pfa, pfb].sum())
        self._partner.fill(-1)
        self._partner[pfa] = pfb
        self._partner[pfb] = pfa
        self._active.fill(False)
        self._active[pfa] = True
        self._active[pfb] = True

        self._E = len(ext_pairs)
        self._base_ext = 0
        self._ext_row.fill(0)
        self._ext_rows = np.zeros(self._n + 1, dtype=np.int64)
        if ext_pairs:
            ext = np.array(ext_pairs, dtype=np.int64)
            pe = l2p[ext]
            self._base_ext = int(dist[pe[:, 0], pe[:, 1]].sum())
            # One slot per (host, partner) orientation of each pair, summed
            # per logical host: rows follow their logical host when a swap
            # moves it, so the grouping holds for the whole epoch.
            self._slot_host = ext.T.ravel()
            self._slot_partner = ext[:, ::-1].T.ravel()
            self._slots = np.arange(2 * self._E)
            hosts, slot_row = np.unique(self._slot_host, return_inverse=True)
            self._slot_sum = np.zeros((len(hosts), 2 * self._E))
            self._slot_sum[slot_row, self._slots] = 1.0
            self._ext_row[l2p[hosts]] = np.arange(1, len(hosts) + 1)
            self._ext_rows = np.zeros((len(hosts) + 1) * (self._n + 1), np.int64)
            self._fill_ext_rows()
        self._set_candidates()
        self._rescore()

    def scores(self, decay: np.ndarray) -> np.ndarray:
        """Float scores of every candidate, identical to the naive formula."""
        front_cost = (self._base_front + self._dfront) / self._F
        if self._E:
            total = front_cost + EXTENDED_SET_WEIGHT * (
                (self._base_ext + self._dext) / self._E
            )
        else:
            total = front_cost
        return np.maximum(decay[self._cp1], decay[self._cp2]) * total

    def select(self, decay: np.ndarray, rng: np.random.Generator) -> int:
        """Pick the candidate index SABRE-style (min score, seeded ties)."""
        sc = self.scores(decay)
        best = sc.min()
        ties = np.flatnonzero(sc <= best + 1e-12)
        if len(ties) > 1:
            order = np.lexsort((self._cp2[ties], self._cp1[ties], sc[ties]))
            ties = ties[order]
        # The naive loop draws once per decision even for a single tie;
        # keep the rng stream identical.
        return int(ties[int(rng.integers(0, len(ties)))])

    def edge(self, idx: int) -> tuple[int, int]:
        return int(self._cp1[idx]), int(self._cp2[idx])

    def commit(self, idx: int) -> None:
        """Apply candidate *idx*'s swap and rescore the candidates."""
        p1 = int(self._cp1[idx])
        p2 = int(self._cp2[idx])
        self._base_front += int(self._dfront[idx])
        self._base_ext += int(self._dext[idx])

        # Swap the physical contents.
        l1 = int(self.p2l[p1])
        l2 = int(self.p2l[p2])
        if l1 >= 0:
            self.l2p[l1] = p2
        if l2 >= 0:
            self.l2p[l2] = p1
        self.p2l[p1] = l2
        self.p2l[p2] = l1

        # Front partners move with their qubits (no-op for a swap between
        # the two endpoints of one pair).
        w1 = int(self._partner[p1])
        w2 = int(self._partner[p2])
        if w1 != p2:
            self._partner[p1] = w2
            self._partner[p2] = w1
            if w1 >= 0:
                self._partner[w1] = p2
            if w2 >= 0:
                self._partner[w2] = p1

        row = self._ext_row
        if row[p1] or row[p2]:
            row[p1], row[p2] = row[p2], row[p1]
            self._fill_ext_rows()

        # Candidate set: active membership only changes when exactly one of
        # the swapped positions hosted a front qubit.
        a1 = bool(self._active[p1])
        a2 = bool(self._active[p2])
        if a1 != a2:
            self._active[p1] = a2
            self._active[p2] = a1
            self._set_candidates()
        self._rescore()


def sabre_route(
    circuit: QuantumCircuit,
    coupling: CouplingMap,
    initial_layout: Layout | None = None,
    seed: int = 7,
    dag: DAGCircuit | None = None,
    _audit=None,
) -> SabreResult:
    """Route *circuit* onto *coupling* inserting SWAPs, SABRE-style.

    The returned circuit acts on physical qubit indices.  1Q gates and
    directives pass straight through at the current mapping.

    ``dag`` optionally supplies a prebuilt dependency DAG of *circuit*
    (it is reset and consumed) so repeated routes of the same circuit —
    the layout search's 2xN reverse traversals — skip reconstruction.
    ``_audit`` is a test hook called once per swap decision with the
    scorer's candidate arrays and the exact state a naive rescoring loop
    needs to reproduce them.
    """
    if circuit.num_qubits > coupling.num_qubits:
        raise ValueError(
            f"circuit has {circuit.num_qubits} qubits, device only "
            f"{coupling.num_qubits}"
        )
    rng = np.random.default_rng(seed)
    layout = (initial_layout or Layout.trivial(circuit.num_qubits)).copy()
    init_layout = layout.copy()
    if dag is None:
        dag = DAGCircuit(circuit)
    else:
        dag.reset()
    coupling.distance_matrix()  # materialize the cached artifact up front
    out = QuantumCircuit(coupling.num_qubits, circuit.name)
    decay = np.ones(coupling.num_qubits)
    num_swaps = 0
    swap_indices: list[int] = []
    steps_since_progress = 0

    l2p_map = layout.as_dict()
    num_slots = max(l2p_map) + 1 if l2p_map else 0
    l2p = np.full(num_slots, -1, dtype=np.int64)
    for q, p in l2p_map.items():
        l2p[q] = p
    scorer = _IncrementalScorer(coupling, l2p)

    gates = dag.gates
    two_qubit = dag.two_qubit
    adj = coupling.adj

    def flush_executable(work: list[int]) -> bool:
        """Execute the runnable gates of *work* (sorted front indices), then
        sweep what they unlocked, until a sweep unlocks nothing; True if any
        gate ran.

        The layout is fixed during a flush, so a 2Q gate found blocked stays
        blocked: each sweep only needs the gates the previous one unlocked,
        in index order, which is the order a rescan of the front visits them.
        """
        progressed = False
        while work:
            unlocked: list[int] = []
            for idx in work:
                g = gates[idx]
                if two_qubit[idx]:
                    qa, qb = g.qubits
                    pa = int(l2p[qa])
                    pb = int(l2p[qb])
                    if pb not in adj[pa]:
                        continue
                    out.append(Gate.trusted(g.name, (pa, pb), g.params))
                else:
                    out.append(
                        Gate.trusted(
                            g.name, tuple(int(l2p[q]) for q in g.qubits), g.params
                        )
                    )
                unlocked.extend(dag.execute(idx))
                progressed = True
            unlocked.sort()
            work = unlocked
        return progressed

    # After a flush every front gate is a blocked 2Q gate (1Q gates always
    # run), and a swap can only unblock the front gates on its two qubits.
    flush_executable(dag.front_indices())
    front_dirty = True
    while not dag.done:
        if front_dirty:
            front_2q = [i for i in dag.front_layer if two_qubit[i]]
            front_of = {q: i for i in front_2q for q in gates[i].qubits}
            ext = _extended_set(dag, dag.front_layer, EXTENDED_SET_SIZE)
            front_pairs = [gates[i].qubits for i in front_2q]
            ext_pairs = [gates[i].qubits for i in ext]
            scorer.begin_epoch(front_pairs, ext_pairs)
            front_dirty = False

        if _audit is not None:
            _audit(scorer, front_pairs, ext_pairs, l2p, decay)
        chosen = scorer.select(decay, rng)
        p1, p2 = scorer.edge(chosen)

        out.append(Gate.trusted("swap", (p1, p2)))
        swap_indices.append(len(out) - 1)
        num_swaps += 1
        scorer.commit(chosen)
        decay[p1] += DECAY_INCREMENT
        decay[p2] += DECAY_INCREMENT
        steps_since_progress += 1
        if steps_since_progress >= DECAY_RESET_INTERVAL:
            decay[:] = 1.0
            steps_since_progress = 0
        moved = (int(scorer.p2l[p1]), int(scorer.p2l[p2]))
        if flush_executable(sorted({front_of[q] for q in moved if q in front_of})):
            decay[:] = 1.0
            steps_since_progress = 0
            front_dirty = True

    final_layout = Layout({q: int(l2p[q]) for q in sorted(l2p_map)})
    return SabreResult(
        circuit=out,
        initial_layout=init_layout,
        final_layout=final_layout,
        num_swaps=num_swaps,
        swap_gate_indices=swap_indices,
    )


def sabre_layout(
    circuit: QuantumCircuit,
    coupling: CouplingMap,
    num_iterations: int = 3,
    seed: int = 7,
    initial_layout: Layout | None = None,
    forward_dag: DAGCircuit | None = None,
    backward_dag: DAGCircuit | None = None,
) -> Layout:
    """Find an initial layout by SABRE forward/backward traversal.

    Each iteration routes the circuit forward then backward, feeding the
    final layout of each pass in as the initial layout of the next.  The
    forward/backward dependency DAGs are built once and reset per route
    instead of reconstructed 2x per iteration; callers that already hold
    them (:func:`route_with_sabre`) can pass them in.
    """
    layout = initial_layout or _spread_layout(circuit.num_qubits, coupling, seed)
    forward = circuit.without_directives()
    backward = circuit.reversed()
    fwd = forward_dag if forward_dag is not None else DAGCircuit(forward)
    bwd = backward_dag if backward_dag is not None else DAGCircuit(backward)
    for it in range(num_iterations):
        res_f = sabre_route(forward, coupling, layout, seed=seed + 2 * it, dag=fwd)
        layout = res_f.final_layout
        res_b = sabre_route(
            backward, coupling, layout, seed=seed + 2 * it + 1, dag=bwd
        )
        layout = res_b.final_layout
    return layout


def _spread_layout(num_logical: int, coupling: CouplingMap, seed: int) -> Layout:
    """Random-but-reproducible starting layout over the device."""
    rng = np.random.default_rng(seed)
    physical = rng.permutation(coupling.num_qubits)[:num_logical]
    return Layout.from_physical_list(int(p) for p in physical)


def route_with_sabre(
    circuit: QuantumCircuit,
    coupling: CouplingMap,
    layout_iterations: int = 2,
    seed: int = 7,
    initial_layout: Layout | None = None,
) -> SabreResult:
    """Full SABRE pipeline: layout search then final routing pass."""
    clean = circuit.without_directives()
    fwd_dag = DAGCircuit(clean)
    if initial_layout is None:
        initial_layout = sabre_layout(
            clean,
            coupling,
            num_iterations=layout_iterations,
            seed=seed,
            forward_dag=fwd_dag,
            backward_dag=DAGCircuit(clean.reversed()),
        )
    return sabre_route(clean, coupling, initial_layout, seed=seed, dag=fwd_dag)
