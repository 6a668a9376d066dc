"""Warm starts from the batch's frontier.

On ``Engine()`` a WCC or SSSP refresh resumes its fixpoint from the last
result and takes round 1 as a step over the keys the batch touched
(``_WarmStartView._frontier``) instead of running the kept branch plan.
After every batch each view must equal a cold run, and each refresh
statement must equal the same refresh without a frontier: the rows,
``repr`` for ``repr``, the iterations and every round's
``(delta_rows, inserted, overwritten, pruned)``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.algorithms import bellman_ford, wcc
from repro.datasets import preferential_attachment
from repro.graphsystems.graph import Graph
from repro.relational import Engine

from ..conftest import reference_engine

SOURCE = 0


def _managed(graph: Graph, frontier: bool = True, views=("cc", "sp")):
    """An ``Engine()`` on columnar storage with a WCC view ``cc`` and an
    SSSP view ``sp`` over *graph* (those of them named in *views*), and
    the list its refresh statements' results are appended to."""
    engine = Engine("oracle")
    manager = engine.streaming
    manager.attach_graph(graph)
    kinds = {"cc": ("wcc", {}), "sp": ("sssp", {"source": SOURCE})}
    for name in views:
        algorithm, params = kinds[name]
        view = manager.register_view(name, algorithm, **params)
        if not frontier:
            view._frontier = lambda seed, delta: None
    results, run = [], engine.execute_detailed

    def recording(*args, **kwargs):
        result = run(*args, **kwargs)
        results.append(result)
        return result

    engine.execute_detailed = recording
    return manager, results


def _statement(result) -> tuple:
    return (repr(result.relation.rows), result.iterations,
            [(s.delta_rows, s.inserted, s.overwritten, s.pruned)
             for s in result.per_iteration])


def _copy(graph: Graph) -> Graph:
    copy = Graph(directed=graph.directed)
    for v in graph.nodes():
        copy.add_node(v)
    for u, v, w in graph.weighted_edges():
        copy.add_edge(u, v, w)
    return copy


def _assert_cold(manager) -> None:
    graph = manager.graph
    cold = {
        "cc": lambda: wcc.run_sql(reference_engine("oracle"), _copy(graph)),
        "sp": lambda: bellman_ford.run_sql(reference_engine("oracle"),
                                           _copy(graph), SOURCE),
    }
    for name, view in manager.views.items():
        values, view = cold[name]().values, view.values
        assert {v: repr(x) for v, x in view.items()} \
            == {v: repr(x) for v, x in values.items()}, name


def _tight(manager) -> list[tuple]:
    """The present edges SSSP's last result relies on."""
    graph, dist = manager.graph, manager.views["sp"].values
    return [(u, v) for u, v, w in graph.weighted_edges()
            if dist[u] is not None and dist[v] == dist[u] + w]


@st.composite
def graphs(draw):
    nodes = draw(st.integers(2, 9))
    graph = Graph(directed=draw(st.booleans()))
    for v in range(nodes):
        graph.add_node(v)
    pairs = draw(st.lists(st.tuples(st.integers(0, nodes - 1),
                                    st.integers(0, nodes - 1)),
                          max_size=3 * nodes))
    # WCC refreshes incrementally only while every weight is 1.0
    weights = (1.0, 2.0) if draw(st.booleans()) else (1.0,)
    for u, v in pairs:
        graph.add_edge(u, v, draw(st.sampled_from(weights)))
    return graph


def _draw_batch(data, manager, next_vertex: int) -> tuple[dict, dict, int]:
    """Edge inserts and weight changes, deletes of tight and other edges,
    vertex inserts and removals; a batch names each vertex pair once and
    touches no vertex it removes."""
    graph = manager.graph
    nodes = list(graph.nodes())
    inserts: dict[str, list] = {}
    deletes: dict[str, list] = {}
    pairs, touched, removed = set(), set(), set()
    for _ in range(data.draw(st.integers(1, 4))):
        kind = data.draw(st.sampled_from(
            ("insert", "insert", "reweight", "delete", "delete", "tight",
             "tight", "vertex", "remove")))
        if kind == "vertex" or not nodes:
            inserts.setdefault("V", []).append((next_vertex,))
            next_vertex += 1
            continue
        if kind == "remove":
            z = data.draw(st.sampled_from(nodes))
            if z not in touched | removed:
                removed.add(z)
                deletes.setdefault("V", []).append((z,))
            continue
        if kind == "insert":
            u = data.draw(st.sampled_from(nodes + [next_vertex]))
            v = data.draw(st.sampled_from(nodes))
            if graph.has_edge(u, v):
                continue
        else:
            edges = _tight(manager) if kind == "tight" \
                else list(graph.edges())
            if not edges:
                continue
            u, v = data.draw(st.sampled_from(edges))
        if {u, v} & removed or frozenset((u, v)) in pairs:
            continue
        pairs.add(frozenset((u, v)))
        touched |= {u, v}
        if kind == "insert":
            if u == next_vertex:
                next_vertex += 1
            inserts.setdefault("E", []).append(
                (u, v, data.draw(st.sampled_from((1.0, 1.0, 1.0, 0.5)))))
        elif kind == "reweight":
            weight = 2.0 if graph.out_neighbors(u)[v] == 1.0 else 1.0
            inserts.setdefault("E", []).append((u, v, weight))
        else:
            deletes.setdefault("E", []).append((u, v))
    return inserts, deletes, next_vertex


@settings(max_examples=60, deadline=None)
@given(graphs(), st.data())
def test_refreshes_from_the_frontier_equal_cold_runs_and_plain_warm_starts(
        graph, data):
    stepped, plain = _managed(graph), _managed(_copy(graph), frontier=False)
    next_vertex = 100
    for _ in range(data.draw(st.integers(1, 5))):
        inserts, deletes, next_vertex = _draw_batch(
            data, stepped[0], next_vertex)
        for manager, results in (stepped, plain):
            results.clear()
            manager.apply_batch(inserts=inserts, deletes=deletes)
        assert list(map(_statement, stepped[1])) \
            == list(map(_statement, plain[1]))
        for name, view in stepped[0].views.items():
            assert repr(view.values) == repr(plain[0].views[name].values)
        _assert_cold(stepped[0])


@pytest.mark.parametrize("directed", [True, False])
def test_a_split_component_relabels_from_its_smallest_vertex(directed):
    """0 - 1 - 2 loses its edge 1 - 2: WCC resets all three, but 0 keeps
    its label, so only the frontier's neighbours of the reset 1 bring 0
    in to label 1 again."""
    graph = Graph(directed=directed)
    for v in range(3):
        graph.add_node(v)
    graph.add_edge(0, 1)
    graph.add_edge(1, 2)
    manager, results = _managed(graph, views=("cc",))
    assert manager.apply_batch(deletes={"E": [(1, 2)]}).views \
        == {"cc": "incremental"}
    (result,) = results
    assert result.per_iteration[0].binding == "delta"
    assert manager.views["cc"].values == {0: 0, 1: 0, 2: 2}


def test_small_batches_refresh_without_running_the_branch_plan(
        branch_plan_runs):
    """An insert-only batch: WCC and SSSP step from round 1 on, and no
    branch plan runs.  A delete whose tight closure is one vertex: SSSP
    does the same."""
    graph = preferential_attachment(300, 4.0, directed=True, seed=5)
    manager, results = _managed(graph)
    branch_plan_runs.clear()
    absent = [(u, v) for u in range(1, 40) for v in range(40, 80)
              if not graph.has_edge(u, v)]
    results.clear()
    assert manager.apply_batch(inserts={"E": [
        (u, v, 1.0) for u, v in absent[::97]]}).views \
        == {"cc": "incremental", "sp": "incremental"}
    assert [r.per_iteration[0].binding for r in results] == ["delta"] * 2
    assert [r.steps for r in results] == [r.iterations for r in results]
    assert branch_plan_runs == []

    manager, results = _managed(_copy(graph), views=("sp",))
    tight = _tight(manager)
    u, v = next((u, v) for u, v in tight
                if v != SOURCE and len(graph.in_neighbors(v)) > 1
                and not any(f == v for f, _ in tight))
    results.clear()
    branch_plan_runs.clear()
    assert manager.apply_batch(deletes={"E": [(u, v)]}).views \
        == {"sp": "incremental"}
    (result,) = results
    assert result.per_iteration[0].binding == "delta"
    assert result.steps == result.iterations
    assert branch_plan_runs == []
    _assert_cold(manager)
