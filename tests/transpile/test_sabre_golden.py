"""Golden + differential regression tests for the incremental SABRE.

The golden corpus (``golden_sabre.json``) was captured from the naive
rescoring implementation; the incremental rewrite must reproduce every swap
sequence, final layout, and routed gate stream bit-for-bit.  The
differential test replays real routing runs and cross-checks the scorer's
delta-maintained candidate scores against a from-scratch naive rescoring
loop at every single swap decision.
"""

import numpy as np
import pytest

from repro.circuits import QuantumCircuit, random_circuit
from repro.circuits.decompose import lower_to_basis, lower_to_two_qubit
from repro.generators import qaoa_random
from repro.hardware import RAAArchitecture, grid_coupling
from repro.transpile import Layout, route_with_sabre, sabre_layout, sabre_route
from repro.transpile.sabre import (
    EXTENDED_SET_SIZE,
    EXTENDED_SET_WEIGHT,
    sabre_route as _sabre_route,
)

from .sabre_golden_corpus import (
    full_cases,
    layout_cases,
    layout_fingerprint,
    load_golden,
    route_cases,
    route_fingerprint,
)


@pytest.fixture(scope="module")
def golden():
    return load_golden()


@pytest.mark.parametrize("name", sorted(route_cases()))
def test_route_matches_golden(name, golden):
    circ_f, cm_f, seed = route_cases()[name]
    circ = circ_f()
    res = sabre_route(circ, cm_f(), Layout.trivial(circ.num_qubits), seed=seed)
    assert route_fingerprint(res) == golden["route"][name]


@pytest.mark.parametrize("name", sorted(layout_cases()))
def test_layout_matches_golden(name, golden):
    circ_f, cm_f, iters, seed = layout_cases()[name]
    lay = sabre_layout(circ_f(), cm_f(), num_iterations=iters, seed=seed)
    assert layout_fingerprint(lay) == golden["layout"][name]


@pytest.mark.parametrize("name", sorted(full_cases()))
def test_full_pipeline_matches_golden(name, golden):
    circ_f, cm_f, iters, seed = full_cases()[name]
    res = route_with_sabre(circ_f(), cm_f(), layout_iterations=iters, seed=seed)
    assert route_fingerprint(res) == golden["full"][name]


def naive_scores(dist, l2p, decay, front_pairs, ext_pairs, candidates):
    """The pre-rewrite per-candidate rescoring loop, verbatim semantics.

    Copies the layout per decision and, for every candidate edge, applies
    the swap, re-sums every front/extended pair distance, and unswaps —
    the O(candidates x pairs) loop the incremental scorer replaced.
    """
    layout = {q: int(p) for q, p in enumerate(l2p) if p >= 0}
    scores = {}
    for p1, p2 in candidates:
        swapped = {}
        for q, p in layout.items():
            swapped[q] = p2 if p == p1 else p1 if p == p2 else p
        front_cost = 0.0
        for a, b in front_pairs:
            front_cost += dist[swapped[a], swapped[b]]
        front_cost /= len(front_pairs)
        ext_cost = 0.0
        if ext_pairs:
            for a, b in ext_pairs:
                ext_cost += dist[swapped[a], swapped[b]]
            ext_cost /= len(ext_pairs)
        scores[(p1, p2)] = max(decay[p1], decay[p2]) * (
            front_cost + EXTENDED_SET_WEIGHT * ext_cost
        )
    return scores


class TestDifferentialScores:
    """Incremental delta-updated scores == naive rescoring, every decision."""

    def _run_with_audit(self, circuit, coupling, seed):
        decisions = {"count": 0}

        def audit(scorer, front_pairs, ext_pairs, l2p, decay):
            dist = coupling.distance_matrix()
            cand = list(zip(scorer._cp1.tolist(), scorer._cp2.tolist()))
            # Candidate set: every coupling edge touching a front qubit.
            active = {int(l2p[q]) for pair in front_pairs for q in pair}
            expected = {
                (min(p, nb), max(p, nb))
                for p in active
                for nb in coupling.neighbors(p)
            }
            assert set(cand) == expected
            got = scorer.scores(decay)
            want = naive_scores(dist, l2p, decay, front_pairs, ext_pairs, cand)
            for (edge, g) in zip(cand, got.tolist()):
                assert g == want[edge], f"score drift on edge {edge}"
            decisions["count"] += 1

        res = _sabre_route(
            circuit,
            coupling,
            Layout.trivial(circuit.num_qubits),
            seed=seed,
            _audit=audit,
        )
        assert decisions["count"] == res.num_swaps
        return res

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_grid(self, seed):
        circ = random_circuit(12, 6.0, 4.0, seed=seed)
        self._run_with_audit(circ, grid_coupling(4, 3), seed)

    def test_multipartite(self):
        circ = lower_to_two_qubit(qaoa_random(12, seed=12).without_directives())
        arch = RAAArchitecture.default(side=4, num_aods=2)
        cm = arch.multipartite_coupling([i % 3 for i in range(12)])
        self._run_with_audit(circ, cm, seed=7)

    def test_line_with_empty_extended_set(self):
        circ = QuantumCircuit(4).cx(0, 3)
        from repro.hardware import CouplingMap

        cm = CouplingMap(4, [(0, 1), (1, 2), (2, 3)])
        res = self._run_with_audit(circ, cm, seed=0)
        assert res.num_swaps >= 2


def per_pair_deltas(dist, cand, pairs):
    """Integer cost change of every candidate swap, summed pair by pair.

    For each pair, every candidate ``(s1, s2)`` is applied to both of its
    endpoints and the new distance compared with the old one: the
    O(candidates x pairs) accumulation that the scorer's host rows avoid.
    """
    s1, s2 = cand[:, 0], cand[:, 1]
    d = np.zeros(len(cand), dtype=np.int64)
    for u, v in pairs:
        nu = np.where(s1 == u, s2, np.where(s2 == u, s1, u))
        nv = np.where(s1 == v, s2, np.where(s2 == v, s1, v))
        d += dist[nu, nv].astype(np.int64) - int(dist[u, v])
    return d


def _multipartite_60():
    arch = RAAArchitecture.default(side=5, num_aods=2)
    return arch.multipartite_coupling([i % 3 for i in range(60)])


#: name -> (device, circuit), both with at least 60 qubits.  QAOA lowered
#: to CZ turns each ZZ term into two CZs on one pair, so the extended set
#: fills to its size limit with pairs that share qubits and repeat.  On the
#: multipartite graph almost every swap unblocks a gate at once (distances
#: are at most 2); the grid makes many swaps per front layer, which puts
#: the in-epoch path (commit, not begin_epoch) under the check.
DELTA_CASES = {
    "multipartite60-dense-qaoa-p2": (
        _multipartite_60,
        lambda: qaoa_random(60, edge_prob=0.5, p_layers=2, seed=3),
    ),
    "grid64-qaoa-p2": (
        lambda: grid_coupling(8, 8),
        lambda: qaoa_random(64, edge_prob=0.05, p_layers=2, seed=3),
    ),
}


@pytest.mark.parametrize("name", sorted(DELTA_CASES))
def test_delta_arrays_match_per_pair_reference(name):
    """The scorer's front and extended-set int64 delta arrays equal a
    per-pair reference at every decision of a 60+ qubit route."""
    device, program = DELTA_CASES[name]
    cm = device()
    circ = lower_to_basis(program().without_directives())
    dist = cm.distance_matrix()
    seen = {"decisions": 0, "in_epoch": 0, "full": 0, "repeated": 0, "both": 0}
    last = {"front": None}

    def audit(scorer, front_pairs, ext_pairs, l2p, decay):
        cand = np.stack([scorer._cp1, scorer._cp2], axis=1)
        front = [(int(l2p[a]), int(l2p[b])) for a, b in front_pairs]
        ext = [(int(l2p[a]), int(l2p[b])) for a, b in ext_pairs]
        assert scorer._dfront.dtype == np.int64
        assert scorer._dext.dtype == np.int64
        assert np.array_equal(scorer._dfront, per_pair_deltas(dist, cand, front))
        assert np.array_equal(scorer._dext, per_pair_deltas(dist, cand, ext))

        seen["decisions"] += 1
        seen["in_epoch"] += front_pairs is last["front"]
        last["front"] = front_pairs
        seen["full"] += len(ext) == EXTENDED_SET_SIZE
        keys = [frozenset(pair) for pair in ext]
        repeated = {k for k in keys if keys.count(k) > 1}
        seen["repeated"] += bool(repeated)
        # a candidate that swaps both endpoints of a repeated ext pair
        seen["both"] += bool({frozenset(c) for c in cand.tolist()} & repeated)

    res = _sabre_route(
        circ, cm, Layout.trivial(circ.num_qubits), seed=7, _audit=audit
    )
    assert seen["decisions"] == res.num_swaps > 50
    assert seen["full"] and seen["repeated"] and seen["both"], seen
    if name.startswith("grid"):
        assert seen["in_epoch"] > 50, seen


def test_prebuilt_dag_reuse_matches_fresh():
    """Routing with a reset, reused DAG is identical to a fresh build."""
    from repro.circuits.dag import DAGCircuit

    circ = random_circuit(10, 6.0, 4.0, seed=4)
    cm = grid_coupling(4, 3)
    dag = DAGCircuit(circ)
    first = sabre_route(circ, cm, Layout.trivial(10), seed=3, dag=dag)
    again = sabre_route(circ, cm, Layout.trivial(10), seed=3, dag=dag)
    fresh = sabre_route(circ, cm, Layout.trivial(10), seed=3)
    assert route_fingerprint(first) == route_fingerprint(fresh)
    assert route_fingerprint(again) == route_fingerprint(fresh)
