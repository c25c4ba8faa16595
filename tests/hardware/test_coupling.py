"""Tests for the coupling-map substrate."""

import numpy as np
import pytest

from repro.hardware import (
    CouplingError,
    CouplingMap,
    grid_coupling,
    long_range_grid_coupling,
)


class TestCouplingMap:
    def test_edges_undirected(self):
        cm = CouplingMap(3, [(0, 1), (1, 2)])
        assert cm.is_adjacent(0, 1) and cm.is_adjacent(1, 0)
        assert not cm.is_adjacent(0, 2)

    def test_self_loop_rejected(self):
        with pytest.raises(CouplingError):
            CouplingMap(2, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(CouplingError):
            CouplingMap(2, [(0, 5)])

    def test_distance_matrix(self):
        cm = CouplingMap(4, [(0, 1), (1, 2), (2, 3)])
        assert cm.distance(0, 3) == 3
        assert cm.distance(0, 0) == 0
        assert cm.distance(3, 0) == 3

    def test_disconnected_distance_sentinel(self):
        cm = CouplingMap(4, [(0, 1), (2, 3)])
        assert cm.distance(0, 2) > 4
        assert not cm.is_connected()

    def test_shortest_path_endpoints(self):
        cm = grid_coupling(3, 3)
        path = cm.shortest_path(0, 8)
        assert path[0] == 0 and path[-1] == 8
        assert len(path) == cm.distance(0, 8) + 1
        for a, b in zip(path, path[1:]):
            assert cm.is_adjacent(a, b)

    def test_shortest_path_same_node(self):
        cm = grid_coupling(2, 2)
        assert cm.shortest_path(1, 1) == [1]

    def test_shortest_path_disconnected_raises(self):
        cm = CouplingMap(4, [(0, 1), (2, 3)])
        with pytest.raises(CouplingError):
            cm.shortest_path(0, 3)

    def test_degree(self):
        cm = grid_coupling(3, 3)
        assert cm.degree(4) == 4  # center
        assert cm.degree(0) == 2  # corner

    def test_subgraph_connectivity_check(self):
        cm = grid_coupling(3, 3)
        assert cm.subgraph_is_valid_layout([0, 1, 2])
        assert not cm.subgraph_is_valid_layout([0, 8])


class TestCachedArtifacts:
    def test_dense_bfs_matches_reference(self):
        """Vectorized all-sources BFS == per-source python BFS, incl. the
        disconnected sentinel."""
        maps = [
            grid_coupling(4, 5),
            grid_coupling(3, 3, triangular=True),
            CouplingMap(6, [(0, 1), (1, 2), (3, 4)]),  # disconnected
            long_range_grid_coupling(3, 4, max_range=2.0),
        ]
        for cm in maps:
            dense = cm._distance_matrix_dense()
            reference = cm._distance_matrix_bfs()
            assert np.array_equal(dense, reference)

    def test_distance_matrix_cached_instance(self):
        cm = grid_coupling(4, 4)
        assert cm.distance_matrix() is cm.distance_matrix()

    def test_add_edge_invalidates_caches(self):
        cm = CouplingMap(3, [(0, 1)])
        assert cm.distance(0, 2) > 3
        assert not cm.edge_mask()[1, 2]
        cm.add_edge(1, 2)
        assert cm.distance(0, 2) == 2
        assert cm.edge_mask()[1, 2]

    def test_edge_mask_matches_adj(self):
        cm = grid_coupling(3, 4, triangular=True)
        mask = cm.edge_mask()
        assert cm.edge_mask() is mask  # cached
        assert not np.tril(mask).any()
        for q in range(cm.num_qubits):
            assert sorted(cm.adj[q]) == np.flatnonzero(mask[q] | mask[:, q]).tolist()

    def test_architecture_coupling_maps_cached(self):
        from repro.hardware.faa import FAAArchitecture
        from repro.hardware.superconducting import SuperconductingArchitecture

        sc = SuperconductingArchitecture()
        assert sc.coupling_map() is sc.coupling_map()
        faa = FAAArchitecture.for_circuit(20)
        assert faa.coupling_map() is faa.coupling_map()

    def test_multipartite_coupling_memoized(self):
        from repro.hardware import RAAArchitecture

        arch = RAAArchitecture.default(side=4, num_aods=2)
        assignment = [i % 3 for i in range(9)]
        first = arch.multipartite_coupling(assignment)
        again = arch.multipartite_coupling(list(assignment))
        assert first is again
        other = arch.multipartite_coupling([i % 2 for i in range(9)])
        assert other is not first


class TestGridCoupling:
    def test_rectangular_edge_count(self):
        cm = grid_coupling(3, 4)
        # horizontal 3*3 + vertical 2*4 = 17
        assert cm.num_edges == 17

    def test_triangular_adds_diagonals(self):
        rect = grid_coupling(3, 3)
        tri = grid_coupling(3, 3, triangular=True)
        assert tri.num_edges == rect.num_edges + 4

    def test_grid_connected(self):
        assert grid_coupling(5, 7).is_connected()

    def test_long_range_radius(self):
        cm = long_range_grid_coupling(3, 3, max_range=1.0)
        rect = grid_coupling(3, 3)
        assert sorted(cm.edges) == sorted(rect.edges)

    def test_long_range_kings_move(self):
        cm = long_range_grid_coupling(3, 3, max_range=1.6)
        # center touches all 8 neighbours
        assert cm.degree(4) == 8

    def test_long_range_full(self):
        cm = long_range_grid_coupling(2, 2, max_range=10.0)
        assert cm.num_edges == 6  # complete graph K4
