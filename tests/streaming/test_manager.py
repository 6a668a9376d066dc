"""StreamingManager semantics: delta building, mirror sync, rejection."""

import random
import types
from collections import Counter

import pytest

from repro.core.algorithms import wcc
from repro.core.algorithms.common import prepare_transition
from repro.datasets import preferential_attachment
from repro.graphsystems.graph import Graph
from repro.relational import Engine
from repro.relational.schema import Schema
from repro.relational.types import SqlType
from repro.streaming import StreamingError


def small_graph():
    graph = Graph(directed=True, name="stream-test")
    for v in range(5):
        graph.add_node(v)
    for u, v in ((0, 1), (1, 2), (2, 0), (3, 4)):
        graph.add_edge(u, v)
    return graph


def attach(**engine_kwargs):
    engine = Engine("oracle", **engine_kwargs)
    graph = small_graph()
    engine.streaming.attach_graph(graph)
    return engine, graph


def edge_table_rows(engine):
    return Counter(map(tuple, engine.database.table("E").rows))


def test_insert_edges_updates_graph_and_mirrors():
    engine, graph = attach()
    result = engine.apply_batch(inserts={"E": [(4, 0), (0, 3, 2.0)]})
    assert graph.has_edge(4, 0) and graph.out_neighbors(0)[3] == 2.0
    assert edge_table_rows(engine) == Counter(graph.weighted_edges())
    assert result.delta.inserted_edges == [(4, 0, 1.0), (0, 3, 2.0)]
    assert result.inserted_rows == 2 and result.deleted_rows == 0


def test_insert_edge_with_new_endpoints_appends_vertices():
    engine, graph = attach()
    engine.apply_batch(inserts={"E": [(7, 8)]})
    assert graph.has_node(7) and graph.has_node(8)
    v_rows = {r[0] for r in engine.database.table("V").rows}
    assert {7, 8} <= v_rows
    # W and L stay aligned with V
    assert {r[0] for r in engine.database.table("W").rows} == v_rows
    assert {r[0] for r in engine.database.table("L").rows} == v_rows


def test_delete_vertex_removes_incident_edges():
    engine, graph = attach()
    result = engine.apply_batch(deletes={"V": [(2,)]})
    assert not graph.has_node(2)
    assert Counter(result.delta.removed_edges) == Counter(
        [(1, 2, 1.0), (2, 0, 1.0)])
    assert edge_table_rows(engine) == Counter(graph.weighted_edges())
    assert 2 not in {r[0] for r in engine.database.table("V").rows}


def test_exact_duplicate_edge_insert_is_noop():
    engine, graph = attach()
    result = engine.apply_batch(inserts={"E": [(0, 1, 1.0)]})
    assert result.delta.size == 0
    assert edge_table_rows(engine) == Counter(graph.weighted_edges())


def test_weight_change_is_remove_plus_insert():
    engine, graph = attach()
    result = engine.apply_batch(inserts={"E": [(0, 1, 3.0)]})
    assert result.delta.removed_edges == [(0, 1, 1.0)]
    assert result.delta.inserted_edges == [(0, 1, 3.0)]
    assert graph.out_neighbors(0)[1] == 3.0
    assert edge_table_rows(engine) == Counter(graph.weighted_edges())


def test_last_write_wins_within_one_batch():
    engine, graph = attach()
    engine.apply_batch(inserts={"E": [(0, 4, 2.0), (0, 4, 5.0)]})
    assert graph.out_neighbors(0)[4] == 5.0
    assert edge_table_rows(engine)[(0, 4, 5.0)] == 1


@pytest.mark.parametrize("batch, match", [
    (dict(deletes={"E": [(0, 4)]}), "missing edge"),
    (dict(deletes={"V": [(9,)]}), "missing vertex"),
    (dict(inserts={"V": [(3,)]}), "already exists"),
])
def test_invalid_batches_raise_and_leave_state_alone(batch, match):
    engine, graph = attach()
    before_edges = Counter(graph.weighted_edges())
    before_table = edge_table_rows(engine)
    with pytest.raises(StreamingError, match=match):
        engine.apply_batch(**batch)
    assert Counter(graph.weighted_edges()) == before_edges
    assert edge_table_rows(engine) == before_table
    assert engine.streaming.batches_applied == 0


def test_transition_relation_resyncs_touched_sources():
    engine, graph = attach()
    prepare_transition(engine)
    engine.apply_batch(inserts={"E": [(0, 3)]})
    s_rows = Counter(map(tuple, engine.database.table("S").rows))
    expected = Counter()
    for u, v, _ in graph.weighted_edges():
        expected[(u, v, 1.0 / graph.out_degree(u))] += 1
    assert s_rows == expected


def test_symmetric_relation_stays_a_set_union():
    engine, graph = attach()
    wcc.prepare_symmetric_edges(engine)
    engine.apply_batch(inserts={"E": [(1, 0)]})   # mirror already present
    engine.apply_batch(deletes={"E": [(0, 1)]})   # (1,0) still derivable
    es_rows = Counter(map(tuple, engine.database.table("ES").rows))
    expected = Counter()
    seen = set()
    for u, v, w in graph.weighted_edges():
        for row in ((u, v, w), (v, u, w)):
            if row not in seen:
                seen.add(row)
                expected[row] += 1
    assert es_rows == expected


def test_generic_table_path_keyed_deletes():
    engine = Engine("oracle")
    table = engine.database.create_table(
        "ACC", Schema.of(("K", SqlType.INTEGER), ("A", SqlType.INTEGER),
                         primary_key=("K",)))
    table.insert_many([(1, 10), (2, 20), (3, 30)])
    result = engine.apply_batch(inserts={"ACC": [(4, 40)]},
                                deletes={"ACC": [(2,)]})
    assert result.tables["ACC"] == {"inserted": 1, "deleted": 1}
    assert Counter(engine.execute("select K, A from ACC").rows) == Counter(
        [(1, 10), (3, 30), (4, 40)])


def test_ingest_metrics_counters_advance():
    engine, _ = attach()
    engine.apply_batch(inserts={"E": [(4, 1)]})
    engine.apply_batch(deletes={"E": [(4, 1)]})
    metrics = engine.metrics
    assert metrics.counter("repro_ingest_batches_total").value == 2
    assert metrics.counter("repro_ingest_rows_total", op="insert").value > 0
    assert metrics.counter("repro_ingest_rows_total", op="delete").value > 0
    with pytest.raises(StreamingError):
        engine.apply_batch(deletes={"E": [(4, 1)]})
    assert metrics.counter("repro_ingest_failures_total",
                           error="StreamingError").value == 1


def test_view_refresh_modes_recorded_per_batch():
    engine, _ = attach()
    engine.streaming.register_view("pr", "pagerank", iterations=4)
    result = engine.apply_batch(inserts={"E": [(0, 4)]})
    assert result.views["pr"] in ("incremental", "full")
    assert engine.streaming.views["pr"].mode_history == [result.views["pr"]]


# -- ES: one patch per batch, same as the per-row walk ------------------------


def per_row_sync_symmetric(manager, delta, track):
    """The per-row ``ES`` walk that one delete + one insert replaced —
    kept here as the oracle."""
    database = manager.engine.database
    if not database.exists("ES"):
        return
    graph = manager.graph
    table = database.table("ES")
    held = set(table.rows)
    candidates = set()
    for u, v, w in delta.removed_edges + delta.inserted_edges:
        candidates.add((u, v, w))
        candidates.add((v, u, w))
    inserted = deleted = 0
    for row in sorted(candidates):
        a, b, w = row
        if (graph.out_neighbors(a).get(b) == w
                or graph.out_neighbors(b).get(a) == w):
            if row not in held:
                table.insert(row)
                inserted += 1
        elif row in held:
            deleted += table.delete_by_key([row], tuple(table.schema.names))
    track(table.name, inserted, deleted)


def mixed_batches(seed, graph, count=6):
    """Valid batches against a shadow of *graph*: edge deletes, now and
    then a vertex delete, edge inserts (some mirroring a present edge,
    some changing a weight, some from a new vertex)."""
    rng = random.Random(seed)
    shadow = {(u, v): w for u, v, w in graph.weighted_edges()}
    nodes = sorted(graph.nodes())
    next_vertex = nodes[-1] + 1
    batches = []
    for _ in range(count):
        deletes = {}
        doomed = rng.sample(sorted(shadow),
                            min(len(shadow), rng.randint(0, 3)))
        if doomed:
            deletes["E"] = doomed
        gone = list(doomed)
        if rng.random() < 0.2 and len(nodes) > 3:
            z = nodes.pop(rng.randrange(len(nodes)))
            deletes["V"] = [(z,)]
            gone += [edge for edge in shadow if z in edge]
        for edge in gone:
            shadow.pop(edge, None)
        fresh = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.3 and shadow:
                # the reverse of a present edge: its ES rows exist already
                (v, u), weight = rng.choice(sorted(shadow.items()))
            else:
                u, v = rng.sample(nodes, 2)
                weight = rng.choice([1.0, 1.0, 2.0, 0.5])
            if shadow.get((u, v)) != weight:
                shadow[(u, v)] = weight
                fresh.append((u, v, weight))
        if rng.random() < 0.3:
            fresh.append((next_vertex, rng.choice(nodes), 1.0))
            shadow[fresh[-1][:2]] = 1.0
            nodes.append(next_vertex)
            next_vertex += 1
        batches.append(({"E": fresh}, deletes))
    return batches


@pytest.mark.parametrize("reference", [True, False],
                         ids=["rows", "columnar"])
@pytest.mark.parametrize("seed", range(5))
def test_symmetric_patch_matches_the_per_row_walk(reference, seed):
    runs = []
    for oracle in (False, True):
        engine = Engine("oracle", reference=reference)
        graph = preferential_attachment(12, 2.0, directed=True, seed=seed)
        engine.streaming.attach_graph(graph)
        wcc.prepare_symmetric_edges(engine)
        manager = engine.streaming
        if oracle:
            manager._sync_symmetric = types.MethodType(
                per_row_sync_symmetric, manager)
        counts = [engine.apply_batch(inserts=i, deletes=d).tables["ES"]
                  for i, d in mixed_batches(seed, graph)]
        rows = list(engine.database.table("ES").rows)
        assert len(set(rows)) == len(rows)  # ES stays a set
        runs.append((counts, rows))
    assert runs[0] == runs[1]
    assert any(c["deleted"] for c in runs[0][0])
    assert any(c["inserted"] for c in runs[0][0])


def test_reattaching_a_graph_rederives_relations_and_refreshes_views():
    """Attaching another graph re-derives ``S`` and ``ES`` and fully
    refreshes every view: one connected chain, then the same vertices
    in two components."""
    from repro.core.algorithms import bellman_ford, pagerank
    from repro.relational import REFERENCE_PROFILE

    engine = Engine("oracle")
    manager = engine.streaming
    manager.attach_graph(Graph.from_edges([(i, i + 1) for i in range(5)]))
    prepare_transition(engine)
    manager.register_view("pr", "pagerank", iterations=5)
    manager.register_view("cc", "wcc")
    manager.register_view("sp", "sssp", source=0)
    split = Graph.from_edges([(0, 1), (1, 2), (3, 4), (4, 5)])
    manager.attach_graph(split)
    assert len(set(manager.views["cc"].values.values())) == 2
    assert manager.views["sp"].values[5] is None

    def cold(algorithm, *args, **kwargs):
        return algorithm.run_sql(Engine("oracle", **REFERENCE_PROFILE),
                                 split, *args, **kwargs).values

    for batch in ({"inserts": {"E": [(5, 3)]}, "deletes": {"E": [(0, 1)]}},
                  None):
        assert manager.views["pr"].values == cold(pagerank, iterations=5)
        assert manager.views["cc"].values == cold(wcc)
        assert manager.views["sp"].values == cold(bellman_ford, 0)
        assert Counter(engine.database.table("S").rows) == Counter(
            (u, v, 1.0 / split.out_degree(u))
            for u, v, _ in split.weighted_edges())
        assert set(engine.database.table("ES").rows) == {
            row for u, v, w in split.weighted_edges()
            for row in ((u, v, w), (v, u, w))}
        if batch is not None:
            engine.apply_batch(**batch)


# -- undirected graphs: one canonical edge delta ---------------------------------


def attach_undirected():
    engine = Engine("oracle")
    graph = preferential_attachment(30, 3.0, directed=False, seed=1)
    engine.streaming.attach_graph(graph)
    prepare_transition(engine)
    engine.streaming.ensure_symmetric_edges()
    return engine, graph


def assert_mirrors_match(engine, graph):
    assert edge_table_rows(engine) == Counter(graph.weighted_edges())
    symmetric = Counter(map(tuple, engine.database.table("ES").rows))
    assert symmetric == Counter(
        {(u, v, w): 1 for u, v, w in graph.weighted_edges()})


def test_an_undirected_edge_named_once_deletes_both_directions():
    from repro.core.algorithms import bellman_ford

    engine, graph = attach_undirected()
    view = engine.streaming.register_view("sssp", "sssp", source=0)
    edges = [(5, x) for x in list(graph.out_neighbors(5))]
    result = engine.apply_batch(deletes={"E": edges})
    assert not graph.out_neighbors(5) and not graph.in_neighbors(5)
    assert len(result.delta.removed_edges) == 2 * len(edges)
    assert_mirrors_match(engine, graph)
    # Before: E kept the other directions and the view reached node 5.
    assert bellman_ford.run_reference(graph, 0).values.get(5) is None
    assert view.values.get(5) is None


def test_both_directions_of_an_undirected_edge_delete_it_once():
    engine, graph = attach_undirected()
    edges = [(u, v) for u, v, _ in graph.weighted_edges() if 5 in (u, v)]
    before = graph.num_edges
    # Before: validation passed, then KeyError 'no edge 5->4' part-way.
    engine.apply_batch(deletes={"E": edges})
    assert graph.num_edges == before - len(edges)
    assert_mirrors_match(engine, graph)
    with pytest.raises(StreamingError, match="missing edge"):
        engine.apply_batch(deletes={"E": [edges[0], edges[0]]})


def test_undirected_batches_keep_every_mirror():
    engine, graph = attach_undirected()
    rng = random.Random(4)
    for _ in range(6):
        nodes = list(graph.nodes())
        edges = list(graph.weighted_edges())
        deletes = rng.sample([(u, v) for u, v, _ in edges], 3)
        named = {frozenset(pair) for pair in deletes}
        inserts = [(u, v, float(rng.choice((1, 2))))
                   for u, v in (rng.sample(nodes, 2) for _ in range(4))
                   if frozenset((u, v)) not in named]
        inserts.append((rng.choice(nodes), 30 + rng.randrange(3), 1.0))
        engine.apply_batch(inserts={"E": inserts}, deletes={"E": deletes})
        assert_mirrors_match(engine, graph)
