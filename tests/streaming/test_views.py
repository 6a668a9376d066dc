"""Byte-identity of maintained views vs cold re-derivation, across the
executor/storage matrix (the PR's acceptance contract)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.check.streaming import (StreamingReport, StreamingScenario,
                                   check_streaming,
                                   generate_streaming_scenario)
from repro.core.algorithms import pagerank
from repro.graphsystems.graph import Graph
from repro.relational import Engine

from ..conftest import reference_engine

#: Ring 0..9 plus chords.
EDGES = tuple(
    [(i, (i + 1) % 10, 1.0) for i in range(10)]
    + [(0, 5, 1.0), (3, 8, 1.0), (7, 2, 1.0)])

#: Mixed mutations: edge churn, a weight change (non-unit WCC gate), a
#: vertex insert (PageRank teleport change → full), a vertex delete.
BATCHES = (
    ({"E": ((0, 7, 1.0),)}, {}),
    ({}, {"E": ((2, 3),)}),
    ({"E": ((5, 1, 2.0),)}, {}),
    ({"V": ((20,),)}, {}),
    ({"E": ((20, 0, 1.0), (7, 20, 1.0))}, {}),
    ({}, {"V": ((4,),)}),
    ({}, {"E": ((5, 1),)}),
    ({"E": ((8, 3, 1.0),)}, {}),
    # Larger insert-only batches: 16 new edges between present vertices,
    # then 64 that route through 32 new vertices.
    ({"E": tuple((u, (u + k) % 10, 1.0) for k in (2, 3) for u in range(10)
                 if 4 not in (u, (u + k) % 10))}, {}),
    ({"E": tuple(edge for j in range(32)
                 for edge in ((j % 10, 100 + j, 1.0),
                              (100 + j, j * 3 % 10, 1.0)))}, {}),
)

CONFIGS = (
    {"executor": "tuple", "storage": "rows"},
    {"executor": "batch", "storage": "rows"},
    {"executor": "tuple", "storage": "columnar"},
)


def scenario_for(config) -> StreamingScenario:
    return StreamingScenario(
        seed=0, kind="graph", nodes=10, edges=EDGES, batches=BATCHES,
        sssp_source=0, iterations=6, **config)


@pytest.mark.parametrize(
    "config", CONFIGS,
    ids=lambda c: f"{c['executor']}-{c['storage']}")
def test_views_byte_identical_to_cold_runs(config):
    detail = check_streaming(scenario_for(config))
    assert detail is None, detail


def test_mixed_batches_exercise_both_refresh_modes():
    report = StreamingReport(seed=0, budget=1)
    detail = check_streaming(scenario_for(CONFIGS[0]), report)
    assert detail is None, detail
    assert report.incremental_refreshes > 0
    assert report.full_refreshes > 0


@pytest.mark.parametrize("seed", [11, 12, 13, 14, 15])
def test_seeded_streaming_scenarios_hold(seed):
    scenario = generate_streaming_scenario(seed)
    detail = check_streaming(scenario)
    assert detail is None, detail


# -- PageRank: the array recompute against a cold reference run ---------------

@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_pagerank_recompute_is_bit_identical(data):
    n = data.draw(st.integers(1, 10), label="nodes")
    graph = Graph(directed=True)
    for v in range(n):
        graph.add_node(v)  # vertices without edges stay isolated
    # An adjacency matrix, so most targets have several in-edges and
    # the order of the float additions shows in the last bit.
    adjacency = data.draw(st.lists(st.booleans(), min_size=n * n,
                                   max_size=n * n), label="adjacency")
    for u in range(n):
        for v in range(n):
            if u != v and adjacency[u * n + v]:
                graph.add_edge(u, v)  # a vertex with none out is a sink
    engine = Engine("oracle")
    manager = engine.streaming
    manager.attach_graph(graph)
    iterations = data.draw(st.integers(1, 8), label="iterations")
    view = manager.register_view("pr", "pagerank", iterations=iterations)
    next_vertex = n
    for _ in range(data.draw(st.integers(1, 3), label="batches")):
        nodes = sorted(graph.nodes())
        edges = sorted(graph.edges())
        kind = data.draw(st.sampled_from(
            ["edge+", "edge-", "vertex+", "vertex-"]), label="kind")
        if kind == "edge-" and edges:
            batch = {"deletes": {"E": [data.draw(st.sampled_from(edges))]}}
        elif kind == "vertex-" and len(nodes) > 1:
            batch = {"deletes": {"V": [(data.draw(st.sampled_from(nodes)),)]}}
        elif kind == "vertex+":
            batch = {"inserts": {"V": [(next_vertex,)]}}
            next_vertex += 1
        else:  # an edge from a present or a new (implicit) vertex
            u = data.draw(st.sampled_from(nodes + [next_vertex]))
            v = data.draw(st.sampled_from(nodes))
            if u == next_vertex:
                next_vertex += 1
            batch = {"inserts": {"E": [(u, v, 1.0)]}}
        assert manager.apply_batch(**batch).views == {"pr": "full"}
        assert list(view.values) == list(graph.nodes())
        cold = pagerank.run_sql(reference_engine("oracle"), graph,
                                iterations=iterations).values
        assert {v: repr(x) for v, x in view.values.items()} \
            == {v: repr(x) for v, x in cold.items()}
