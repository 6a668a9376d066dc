"""The shared graph container.

A lightweight adjacency-dict graph used by the baseline engines
(:mod:`repro.graphsystems`), the dataset generators and the reference
implementations of the algorithms.  Matching the paper's setup:

* graphs are weighted and directed; an undirected graph is "maintained as
  a directed graph by including two directed edges for an undirected
  edge";
* every node carries a node-weight (``vw``) and optionally a label (for
  Label-Propagation and Keyword-Search).
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator


class Graph:
    """A directed, weighted graph with node weights and labels."""

    def __init__(self, directed: bool = True, name: str = ""):
        self.directed = directed
        self.name = name
        self._out: dict[int, dict[int, float]] = {}
        self._in: dict[int, dict[int, float]] = {}
        self._node_weight: dict[int, float] = {}
        self._label: dict[int, int] = {}

    # -- construction -----------------------------------------------------------

    def add_node(self, node: int, weight: float = 0.0,
                 label: int | None = None) -> None:
        if node not in self._out:
            self._out[node] = {}
            self._in[node] = {}
            self._node_weight[node] = weight
        if label is not None:
            self._label[node] = label

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Add u→v (and v→u too when the graph is undirected)."""
        self.add_node(u)
        self.add_node(v)
        self._out[u][v] = weight
        self._in[v][u] = weight
        if not self.directed:
            self._out[v][u] = weight
            self._in[u][v] = weight

    def remove_edge(self, u: int, v: int) -> None:
        """Remove u→v (and v→u too when the graph is undirected).

        Endpoints stay in the graph; re-adding the edge later appends it
        at the *end* of ``u``'s adjacency (dict semantics), which is also
        where the streaming layer re-appends its table row."""
        if v not in self._out.get(u, ()):
            raise KeyError(f"no edge {u}->{v}")
        del self._out[u][v]
        del self._in[v][u]
        if not self.directed and u != v:  # a self-loop is stored once
            del self._out[v][u]
            del self._in[u][v]

    def remove_node(self, node: int) -> None:
        """Remove *node* and every incident edge."""
        if node not in self._out:
            raise KeyError(f"no node {node}")
        for neighbor in self._out[node]:
            if neighbor != node:
                del self._in[neighbor][node]
        for neighbor in self._in[node]:
            if neighbor != node:
                del self._out[neighbor][node]
        del self._out[node]
        del self._in[node]
        del self._node_weight[node]
        self._label.pop(node, None)

    @staticmethod
    def from_edges(edges: Iterable[tuple], directed: bool = True,
                   name: str = "") -> "Graph":
        graph = Graph(directed, name)
        for edge in edges:
            if len(edge) == 2:
                graph.add_edge(edge[0], edge[1])
            else:
                graph.add_edge(edge[0], edge[1], edge[2])
        return graph

    # -- reading -----------------------------------------------------------------

    def nodes(self) -> Iterator[int]:
        return iter(self._out)

    def edges(self) -> Iterator[tuple[int, int]]:
        """All stored directed edges (both directions for undirected)."""
        for u, targets in self._out.items():
            for v in targets:
                yield (u, v)

    def weighted_edges(self) -> Iterator[tuple[int, int, float]]:
        for u, targets in self._out.items():
            for v, w in targets.items():
                yield (u, v, w)

    def out_neighbors(self, node: int) -> dict[int, float]:
        return self._out.get(node, {})

    def in_neighbors(self, node: int) -> dict[int, float]:
        return self._in.get(node, {})

    def out_degree(self, node: int) -> int:
        return len(self._out.get(node, ()))

    def in_degree(self, node: int) -> int:
        return len(self._in.get(node, ()))

    def degree(self, node: int) -> int:
        """Undirected degree: distinct in/out neighbours."""
        return len(set(self._out.get(node, ())) | set(self._in.get(node, ())))

    def node_weight(self, node: int) -> float:
        return self._node_weight[node]

    def set_node_weight(self, node: int, weight: float) -> None:
        self._node_weight[node] = weight

    def label(self, node: int) -> int:
        return self._label.get(node, 0)

    def set_label(self, node: int, label: int) -> None:
        self._label[node] = label

    @property
    def num_nodes(self) -> int:
        return len(self._out)

    @property
    def num_edges(self) -> int:
        """Stored directed edge count (an undirected edge counts twice)."""
        return sum(len(t) for t in self._out.values())

    @property
    def average_degree(self) -> float:
        if not self._out:
            return 0.0
        return self.num_edges / self.num_nodes

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._out.get(u, ())

    def has_node(self, node: int) -> bool:
        return node in self._out

    # -- derived ------------------------------------------------------------------

    def randomize_node_weights(self, low: float = 0.0, high: float = 20.0,
                               seed: int = 7) -> None:
        """Uniform node weights in [low, high] (the paper's MNM setup)."""
        rng = random.Random(seed)
        for node in self._out:
            self._node_weight[node] = rng.uniform(low, high)

    def randomize_labels(self, label_count: int, seed: int = 11) -> None:
        """Random node labels (the paper's LP/KS setup)."""
        rng = random.Random(seed)
        for node in self._out:
            self._label[node] = rng.randrange(label_count)

    def bfs_eccentricity(self, source: int) -> int:
        """Longest shortest hop-distance from *source* (diameter probes)."""
        frontier = [source]
        seen = {source}
        depth = 0
        while frontier:
            nxt = []
            for node in frontier:
                for neighbor in self._out.get(node, ()):
                    if neighbor not in seen:
                        seen.add(neighbor)
                        nxt.append(neighbor)
            if not nxt:
                break
            depth += 1
            frontier = nxt
        return depth

    def estimated_diameter(self, probes: int = 8, seed: int = 3) -> int:
        """Max eccentricity over a few BFS probes (Table 3's diameter)."""
        rng = random.Random(seed)
        nodes = list(self._out)
        if not nodes:
            return 0
        if probes >= len(nodes):
            sample = nodes  # exhaustive: exact (directed) diameter
        else:
            sample = rng.sample(nodes, probes)
        return max(self.bfs_eccentricity(s) for s in sample)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "directed" if self.directed else "undirected"
        return (f"Graph({self.name or 'unnamed'}, {kind},"
                f" n={self.num_nodes}, m={self.num_edges})")
