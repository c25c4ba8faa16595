"""Coupling-map abstraction shared by all backends.

A :class:`CouplingMap` is an undirected graph over physical qubits with a
cached all-pairs shortest-path distance matrix (BFS).  SABRE's heuristic and
swap enumeration work purely through this interface, so the same router runs
on heavy-hex superconducting chips, FAA grids, and the RAA complete
multipartite logical graph.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

import numpy as np


class CouplingError(ValueError):
    """Raised for invalid coupling-map queries."""


class CouplingMap:
    """Undirected coupling graph with BFS distances.

    Parameters
    ----------
    num_qubits:
        Number of physical qubits.
    edges:
        Iterable of undirected pairs ``(a, b)``.
    """

    def __init__(self, num_qubits: int, edges: Iterable[tuple[int, int]]) -> None:
        if num_qubits <= 0:
            raise CouplingError("num_qubits must be positive")
        self.num_qubits = int(num_qubits)
        self.adj: list[set[int]] = [set() for _ in range(self.num_qubits)]
        self._edges: set[tuple[int, int]] = set()
        for a, b in edges:
            self.add_edge(int(a), int(b))
        self._dist: np.ndarray | None = None
        self._edge_mask: np.ndarray | None = None

    def add_edge(self, a: int, b: int) -> None:
        """Insert the undirected edge ``(a, b)``."""
        if a == b:
            raise CouplingError(f"self-loop on qubit {a}")
        if not (0 <= a < self.num_qubits and 0 <= b < self.num_qubits):
            raise CouplingError(f"edge ({a},{b}) out of range")
        self.adj[a].add(b)
        self.adj[b].add(a)
        self._edges.add((min(a, b), max(a, b)))
        self._dist = None
        self._edge_mask = None

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Sorted list of undirected edges."""
        return sorted(self._edges)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def neighbors(self, q: int) -> set[int]:
        """Physical qubits adjacent to *q*."""
        return self.adj[q]

    def is_adjacent(self, a: int, b: int) -> bool:
        """True if a 2Q gate can run directly between *a* and *b*."""
        return b in self.adj[a]

    def degree(self, q: int) -> int:
        return len(self.adj[q])

    def edge_mask(self) -> np.ndarray:
        """Upper-triangular adjacency: ``[a, b]`` is True for each edge
        ``a < b``.  Cached on the instance.

        SABRE reads its swap candidates off this mask, so their flat
        indices ``a * n + b`` come out sorted without a merge.
        """
        if self._edge_mask is None:
            n = self.num_qubits
            mask = np.zeros((n, n), dtype=bool)
            if self._edges:
                edges = np.array(list(self._edges), dtype=np.int64)
                mask[edges[:, 0], edges[:, 1]] = True
            self._edge_mask = mask
        return self._edge_mask

    # -- distances ------------------------------------------------------------

    #: above this size the dense frontier product's n^2-per-level memory
    #: traffic loses to the per-source python BFS
    _DENSE_BFS_LIMIT = 512

    def distance_matrix(self) -> np.ndarray:
        """All-pairs hop distances; unreachable pairs get a large sentinel.

        Computed once and cached on the instance (every factory in this
        module builds the full edge set in the constructor, so the cache
        never needs invalidating in practice; ``add_edge`` still clears it
        for the incremental-construction path).  Small graphs use a
        vectorized all-sources BFS: one boolean frontier matrix expanded a
        level at a time through a float32 adjacency product.
        """
        if self._dist is None:
            n = self.num_qubits
            if n <= self._DENSE_BFS_LIMIT and self._edges:
                self._dist = self._distance_matrix_dense()
            else:
                self._dist = self._distance_matrix_bfs()
        return self._dist

    def _distance_matrix_dense(self) -> np.ndarray:
        n = self.num_qubits
        edges = np.array(sorted(self._edges), dtype=np.int64)
        adj = np.zeros((n, n), dtype=np.float32)
        adj[edges[:, 0], edges[:, 1]] = 1.0
        adj[edges[:, 1], edges[:, 0]] = 1.0
        dist = np.full((n, n), n + 1, dtype=np.int32)
        np.fill_diagonal(dist, 0)
        frontier = np.eye(n, dtype=np.float32)
        reached = np.eye(n, dtype=bool)
        level = 0
        while True:
            level += 1
            newly = (frontier @ adj > 0.0) & ~reached
            if not newly.any():
                break
            dist[newly] = level
            reached |= newly
            frontier = newly.astype(np.float32)
        return dist

    def _distance_matrix_bfs(self) -> np.ndarray:
        n = self.num_qubits
        dist = np.full((n, n), n + 1, dtype=np.int32)
        for src in range(n):
            dist[src, src] = 0
            dq: deque[int] = deque([src])
            while dq:
                u = dq.popleft()
                for v in self.adj[u]:
                    if dist[src, v] > dist[src, u] + 1:
                        dist[src, v] = dist[src, u] + 1
                        dq.append(v)
        return dist

    def distance(self, a: int, b: int) -> int:
        """Hop distance between *a* and *b*."""
        return int(self.distance_matrix()[a, b])

    def is_connected(self) -> bool:
        """True if the graph is a single connected component."""
        return bool((self.distance_matrix()[0] <= self.num_qubits).all())

    def shortest_path(self, a: int, b: int) -> list[int]:
        """One BFS shortest path from *a* to *b* inclusive."""
        if a == b:
            return [a]
        prev = {a: a}
        dq: deque[int] = deque([a])
        while dq:
            u = dq.popleft()
            for v in self.adj[u]:
                if v not in prev:
                    prev[v] = u
                    if v == b:
                        path = [b]
                        while path[-1] != a:
                            path.append(prev[path[-1]])
                        return list(reversed(path))
                    dq.append(v)
        raise CouplingError(f"no path between {a} and {b}")

    def subgraph_is_valid_layout(self, physical: Iterable[int]) -> bool:
        """True if *physical* induces a connected subgraph (dense-layout check)."""
        nodes = set(physical)
        if not nodes:
            return False
        start = next(iter(nodes))
        seen = {start}
        dq = deque([start])
        while dq:
            u = dq.popleft()
            for v in self.adj[u]:
                if v in nodes and v not in seen:
                    seen.add(v)
                    dq.append(v)
        return seen == nodes


def grid_coupling(rows: int, cols: int, triangular: bool = False) -> CouplingMap:
    """Rectangular (optionally triangular) grid coupling map.

    Triangular adds one diagonal per unit cell, matching the FAA-Triangular
    topology of Geyser [64] used as a baseline in the paper.
    """
    n = rows * cols

    def qid(r: int, c: int) -> int:
        return r * cols + c

    edges: list[tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((qid(r, c), qid(r, c + 1)))
            if r + 1 < rows:
                edges.append((qid(r, c), qid(r + 1, c)))
            if triangular and r + 1 < rows and c + 1 < cols:
                edges.append((qid(r, c), qid(r + 1, c + 1)))
    return CouplingMap(n, edges)


def long_range_grid_coupling(rows: int, cols: int, max_range: float) -> CouplingMap:
    """Grid where any pair within Euclidean distance *max_range* sites couples.

    Models Baker et al.'s long-range FAA interactions (max range = 4 Rydberg
    radii, with unit site pitch = 1 Rydberg-radius-normalized spacing).
    """
    n = rows * cols
    coords = [(r, c) for r in range(rows) for c in range(cols)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            dr = coords[i][0] - coords[j][0]
            dc = coords[i][1] - coords[j][1]
            if (dr * dr + dc * dc) ** 0.5 <= max_range + 1e-9:
                edges.append((i, j))
    return CouplingMap(n, edges)
