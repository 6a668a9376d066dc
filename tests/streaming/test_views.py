"""Byte-identity of maintained views vs cold re-derivation, on both
engine profiles."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.check.streaming import (StreamingReport, StreamingScenario,
                                   check_streaming,
                                   generate_streaming_scenario)
from repro.core.algorithms import bellman_ford, pagerank, wcc
from repro.core.algorithms.common import load_graph
from repro.datasets import preferential_attachment
from repro.graphsystems.graph import Graph
from repro.relational import Engine, table
from repro.relational.columnar import store
from repro.relational.physical import blocks
from repro.relational.relation import Relation
from repro.streaming import PageRankView, StreamingError

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

def scenario_for(reference: bool) -> StreamingScenario:
    return StreamingScenario(
        seed=0, kind="graph", nodes=10, edges=EDGES, batches=BATCHES,
        sssp_source=0, iterations=6, reference=reference)


@pytest.mark.parametrize("reference", [True, False],
                         ids=["tuple-rows", "batch-columnar"])
def test_views_byte_identical_to_cold_runs(reference):
    detail = check_streaming(scenario_for(reference))
    assert detail is None, detail


def test_mixed_batches_exercise_both_refresh_modes():
    report = StreamingReport(seed=0, budget=1)
    detail = check_streaming(scenario_for(True), report)
    assert detail is None, detail
    assert report.incremental_refreshes > 0
    assert report.full_refreshes > 0


@pytest.mark.parametrize("seed", [2026, 7])
def test_campaigns_draw_the_default_engine_often(seed):
    """CI's streaming campaigns (budget 120) run a third or more of their
    scenarios on ``Engine()``, the array profile, and some on the
    reference profile: only generated here, no engine runs."""
    scenarios = [generate_streaming_scenario(seed * 1_000_003 + index)
                 for index in range(120)]
    on_default = [scenario for scenario in scenarios
                  if not scenario.reference]
    assert 40 <= len(on_default) < len(scenarios)


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


# -- the views' vector state --------------------------------------------------

KINDS = ("edge+", "edge-", "readd", "weight", "vertex+", "vertex-")


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_patched_pagerank_edge_list_equals_a_rebuild(data):
    """After each batch the segment-patched ``degree``/``dst`` equal a
    rebuild from the graph, and ``values`` is in ``graph.nodes()`` order."""
    n = data.draw(st.integers(2, 8), label="nodes")
    graph = Graph(directed=True)
    for v in range(n):
        graph.add_node(v)
    for u, v in data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                             st.integers(0, n - 1)),
                                   max_size=20), label="edges"):
        graph.add_edge(u, v)
    manager = Engine("oracle").streaming
    manager.attach_graph(graph)
    view = manager.register_view("pr", "pagerank", iterations=3)
    gone: list[tuple[int, int]] = []
    next_vertex = n
    for _ in range(data.draw(st.integers(1, 4), label="batches")):
        inserts: dict = {}
        deletes: dict = {}
        used: set[int] = set()  # vertices this batch touched already
        for kind in data.draw(st.lists(st.sampled_from(KINDS), min_size=1,
                                       max_size=3), label="moves"):
            nodes = [v for v in graph.nodes() if v not in used]
            edges = [e for e in graph.edges() if not used & set(e)]
            again = [e for e in gone if not used & set(e)
                     and all(map(graph.has_node, e))
                     and not graph.has_edge(*e)]
            if kind in ("edge-", "weight") and edges:
                u, v = data.draw(st.sampled_from(edges))
                if kind == "edge-":
                    deletes.setdefault("E", []).append((u, v))
                    gone.append((u, v))
                else:
                    inserts.setdefault("E", []).append((u, v, 2.0))
            elif kind == "readd" and again:
                u, v = data.draw(st.sampled_from(again))
                inserts.setdefault("E", []).append((u, v, 1.0))
            elif kind == "vertex-" and len(nodes) > 1:
                u = v = data.draw(st.sampled_from(nodes))
                deletes.setdefault("V", []).append((u,))
            elif kind == "vertex+":
                u = v = next_vertex
                next_vertex += 1
                inserts.setdefault("V", []).append((u,))
            elif nodes:  # an edge from a present or a new vertex
                u = data.draw(st.sampled_from(nodes + [next_vertex]))
                v = data.draw(st.sampled_from(nodes))
                if u == next_vertex:
                    next_vertex += 1
                elif graph.has_edge(u, v):
                    continue
                inserts.setdefault("E", []).append((u, v, 1.0))
            else:
                continue
            used |= {u, v}
        manager.apply_batch(inserts=inserts, deletes=deletes)
        rebuilt = PageRankView(manager, "rebuilt", iterations=3)
        rebuilt.full_refresh()
        assert view.degree.tolist() == rebuilt.degree.tolist()
        assert view.dst.tolist() == rebuilt.dst.tolist()
        assert list(view.values) == list(graph.nodes())
        assert list(map(repr, view.values.values())) \
            == list(map(repr, rebuilt.values.values()))


def register_all(manager, source=0):
    manager.register_view("pr", "pagerank", iterations=6)
    manager.register_view("cc", "wcc")
    manager.register_view("sp", "sssp", source=source)


def assert_views_equal_cold_runs(manager, source=0):
    graph = manager.graph
    cold = {
        "pr": pagerank.run_sql(reference_engine("oracle"), graph,
                               iterations=6).values,
        "cc": wcc.run_sql(reference_engine("oracle"), graph).values,
        "sp": bellman_ford.run_sql(reference_engine("oracle"), graph,
                                   source).values,
    }
    for name, values in cold.items():
        view = manager.views[name].values
        assert list(view) == list(graph.nodes())
        assert {v: repr(x) for v, x in view.items()} \
            == {v: repr(x) for v, x in values.items()}, name


def test_an_insert_only_batch_builds_no_rows_and_retypes_no_vertex_list(
        monkeypatch):
    """On ``Engine()``'s columnar storage the three views refresh on
    vectors from the first batch on: no ``Relation.rows`` or
    ``ArrayColumns.rows``, no whole-table row list built by
    ``ColumnStore.materialized`` (``ES`` included), and ``exact_array``
    runs only over the appended rows, never over a list of every
    vertex."""
    graph = preferential_attachment(200, 4.0, directed=True, seed=3)
    engine = Engine("oracle")
    manager = engine.streaming
    manager.attach_graph(graph)
    register_all(manager)
    calls, typed = [], []
    rows = Relation.rows
    monkeypatch.setattr(Relation, "rows", property(
        lambda self: calls.append("Relation") or rows.fget(self)))
    array_rows = blocks.ArrayColumns.rows
    monkeypatch.setattr(blocks.ArrayColumns, "rows", lambda self: calls.append(
        "ArrayColumns") or array_rows(self))
    materialized = store.ColumnStore.materialized

    def building(self):
        if self._rows is None:
            calls.append(f"materialized {len(self)} rows")
        return materialized(self)

    monkeypatch.setattr(store.ColumnStore, "materialized", building)
    exact_array = blocks.exact_array

    def typing(values):
        if isinstance(values, list):
            typed.append(len(values))
        return exact_array(values)

    for module in (blocks, store, table):
        monkeypatch.setattr(module, "exact_array", typing)
    for inserts in ([(1, 7, 1.0)], [(2, 9, 1.0), (5, 11, 1.0), (250, 3, 1.0)]):
        typed.clear()
        result = engine.apply_batch(inserts={"E": inserts})
        assert result.views == {"pr": "full", "cc": "incremental",
                                "sp": "incremental"}
        assert calls == []
        assert typed and max(typed) <= result.inserted_rows < graph.num_nodes
    monkeypatch.undo()
    assert_views_equal_cold_runs(manager)


def test_a_result_out_of_node_order_is_put_in_order():
    """``V`` loaded in another order than the attached graph's nodes: the
    engine answers in ``V`` order and the views reorder through the slot
    map, before and after a batch."""
    edges = [(i, (i * 3 + 1) % 9, 1.0) for i in range(9)] + [(2, 7, 1.0)]
    engine = Engine("oracle")
    load_graph(engine, Graph.from_edges(edges))
    shuffled = Graph(directed=True)
    for v in (8, 3, 5, 0, 7, 1, 6, 2, 4):
        shuffled.add_node(v)
    for u, v, w in edges:
        shuffled.add_edge(u, v, w)
    manager = engine.streaming
    manager.attach_graph(shuffled, load=False)
    register_all(manager)
    assert [v for v, _ in engine.execute(wcc.sql()).rows] \
        != list(shuffled.nodes())
    assert_views_equal_cold_runs(manager)
    engine.apply_batch(inserts={"E": [(4, 2, 1.0)]}, deletes={"E": [(0, 1)]})
    assert_views_equal_cold_runs(manager)


@pytest.mark.parametrize("vertex", [2 ** 53, -2 ** 63, 2 ** 64, 1.5])
def test_vertex_ids_without_an_exact_vector_are_refused(vertex):
    graph = Graph(directed=True)
    graph.add_edge(0, 1)
    manager = Engine("oracle").streaming
    manager.attach_graph(graph)
    register_all(manager)
    with pytest.raises(StreamingError, match="below 2\\*\\*53"):
        manager.apply_batch(inserts={"E": [(0, vertex)]})
    assert list(graph.nodes()) == [0, 1] and manager.batches_applied == 0
    bad = Graph(directed=True)
    bad.add_edge(vertex, 0)
    with pytest.raises(StreamingError, match="below 2\\*\\*53"):
        manager.attach_graph(bad)
    assert manager.graph is graph


@pytest.mark.parametrize("reference", [True, False],
                         ids=["rows", "columnar"])
def test_views_of_an_emptied_graph_are_empty_and_grow_again(reference):
    engine = Engine("oracle", reference=reference)
    manager = engine.streaming
    manager.attach_graph(Graph.from_edges([(0, 1), (1, 2)]))
    register_all(manager)
    engine.apply_batch(deletes={"V": [(0,), (1,), (2,)]})
    assert [view.values for view in manager.views.values()] == [{}, {}, {}]
    engine.apply_batch(inserts={"E": [(5, 6), (6, 0)]})
    assert_views_equal_cold_runs(manager)


def test_a_vertex_removed_and_readded_in_one_batch_starts_over():
    """Vertex 2 is deleted and comes back as a new endpoint in the same
    batch: no view may seed it with its old value (SSSP once kept its
    old distance, 2.0, and reached 5 and 6 through it)."""
    graph = Graph.from_edges([(0, 1), (1, 2), (2, 3), (5, 6)])
    manager = Engine("oracle").streaming
    manager.attach_graph(graph)
    register_all(manager)
    result = manager.apply_batch(deletes={"V": [(2,)]},
                                 inserts={"E": [(2, 5, 1.0)]})
    assert result.views["sp"] == "incremental"
    assert manager.views["sp"].values[6] is None
    assert_views_equal_cold_runs(manager)
