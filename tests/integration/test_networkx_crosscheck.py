"""Cross-validation against networkx — an independent implementation of
the same algorithms, catching any systematic bias our references share
with our SQL."""

import networkx as nx
import pytest

from repro.core.algorithms import (
    bellman_ford,
    diameter,
    floyd_warshall,
    hits,
    kcore,
    pagerank,
    tc,
    toposort,
    wcc,
)
from repro.graphsystems.graph import Graph
from repro.relational import REFERENCE_PROFILE, Engine


def to_networkx(graph):
    g = nx.DiGraph()
    g.add_nodes_from(graph.nodes())
    g.add_weighted_edges_from(graph.weighted_edges())
    return g


class TestShortestPaths:
    def test_sssp_vs_networkx(self, small_directed):
        ours = bellman_ford.run_sql(Engine("oracle"), small_directed,
                                    source=0).values
        theirs = nx.single_source_dijkstra_path_length(
            to_networkx(small_directed), 0)
        for node in small_directed.nodes():
            if node in theirs:
                assert ours[node] == pytest.approx(theirs[node])
            else:
                assert ours[node] is None

    def test_floyd_warshall_vs_networkx(self, tiny_graph):
        ours = floyd_warshall.run_sql(Engine("oracle"), tiny_graph).values
        theirs = dict(nx.all_pairs_dijkstra_path_length(
            to_networkx(tiny_graph)))
        for (source, target), distance in ours.items():
            assert distance == pytest.approx(theirs[source][target])


class TestStructure:
    def test_tc_vs_networkx(self, small_directed):
        ours = set(tc.run_sql(Engine("oracle"), small_directed).values)
        theirs = {(u, v)
                  for u, v in nx.transitive_closure(
                      to_networkx(small_directed)).edges()
                  if True}
        ours_nontrivial = {(u, v) for u, v in ours if u != v}
        theirs_nontrivial = {(u, v) for u, v in theirs if u != v}
        assert ours_nontrivial == theirs_nontrivial

    def test_wcc_vs_networkx(self, small_directed):
        ours = wcc.run_sql(Engine("oracle"), small_directed).values
        components = list(nx.weakly_connected_components(
            to_networkx(small_directed)))
        for component in components:
            labels = {ours[v] for v in component}
            assert len(labels) == 1
            assert labels == {float(min(component))}

    def test_kcore_vs_networkx(self, small_undirected):
        k = 4
        ours = set(kcore.run_sql(Engine("oracle"), small_undirected,
                                 k=k).values)
        undirected = to_networkx(small_undirected).to_undirected()
        undirected.remove_edges_from(nx.selfloop_edges(undirected))
        theirs = set(nx.k_core(undirected, k).nodes())
        assert ours == theirs

    def test_toposort_is_a_valid_networkx_order(self, small_dag):
        levels = toposort.run_sql(Engine("oracle"), small_dag).values
        order = sorted(levels, key=lambda v: (levels[v], v))
        g = to_networkx(small_dag)
        position = {v: i for i, v in enumerate(order)}
        for u, v in g.edges():
            assert position[u] < position[v]


class TestDiameter:
    """Diameter's answer is its closure's iteration count, which the
    engine's binding choice could skew: it must stay within the ±1
    ``diameter.py`` documents of networkx's on the symmetrised graph, on
    the default engine (delta binding) and the reference (full R)."""

    @staticmethod
    def symmetrised_diameter(graph) -> int:
        g = to_networkx(graph).to_undirected()
        return max(nx.diameter(g.subgraph(component))
                   for component in nx.connected_components(g))

    @pytest.mark.parametrize("profile", [{}, REFERENCE_PROFILE],
                             ids=["default", "reference"])
    def test_diameter_vs_networkx(self, profile, small_directed,
                                  small_undirected, small_dag):
        path = Graph.from_edges([(i, i + 1, 1.0) for i in range(12)])
        for graph in (small_directed, small_undirected, small_dag, path):
            ours = diameter.run_sql(Engine("oracle", **profile),
                                    graph).values["diameter"]
            assert abs(ours - self.symmetrised_diameter(graph)) <= 1


class TestScores:
    def test_pagerank_vs_networkx_on_closed_graph(self):
        """On a strongly connected graph with every node having in-edges,
        the paper's PR semantics coincide with textbook PageRank after
        enough iterations — compare against networkx there."""
        from repro.datasets import preferential_attachment

        pytest.importorskip("scipy")  # networkx's pagerank runs on it
        graph = preferential_attachment(40, 4.0, directed=False, seed=17)
        # 0.85^k convergence: 140 iterations push the residual below 1e-9.
        ours = pagerank.run_sql(Engine("oracle"), graph,
                                iterations=140).values
        theirs = nx.pagerank(to_networkx(graph), alpha=0.85, max_iter=500,
                             tol=1e-13)
        for node in graph.nodes():
            assert ours[node] == pytest.approx(theirs[node], abs=1e-8)

    def test_hits_vs_networkx(self, small_directed):
        pytest.importorskip("scipy")  # networkx's hits runs on it
        ours = hits.run_sql(Engine("oracle"), small_directed,
                            iterations=60).values
        hubs, authorities = nx.hits(to_networkx(small_directed),
                                    max_iter=500, tol=1e-12)
        # networkx normalises by sum; ours by 2-norm — compare shapes via
        # normalised vectors.
        def normalise(vector):
            total = sum(vector.values())
            return {k: v / total for k, v in vector.items()}

        ours_hubs = normalise({v: h for v, (h, _) in ours.items()})
        ours_auth = normalise({v: a for v, (_, a) in ours.items()})
        theirs_hubs = normalise(hubs)
        theirs_auth = normalise(authorities)
        for node in small_directed.nodes():
            assert ours_hubs[node] == pytest.approx(theirs_hubs[node],
                                                    abs=1e-4)
            assert ours_auth[node] == pytest.approx(theirs_auth[node],
                                                    abs=1e-4)
