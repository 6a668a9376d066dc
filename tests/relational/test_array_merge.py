"""Array-resident fixpoint state: the union-by-update merge on typed
vectors, the vector form of the column store, and batch-backed
relations.

The row-storage table (list merge, per-row coercion) is the oracle.
Layers:

* merge — the array ``merge_delta_rebuild`` / ``consolidate_delta``
  against the row-storage table on contents, row order, value identity
  (``1`` vs ``1.0``, ``0.0`` vs ``-0.0``) and the ``(replaced, appended)``
  pair; one named case per edge of the envelope with a spy proving the
  array path ran or declined;
* store / relation — snapshots survive later merges, a batch-backed
  relation behaves as the tuples it stands for and builds them once;
* loop — PR/WCC/SSSP iteration statistics ``best`` vs ``default`` (here
  and in test ids: ``REFERENCE_PROFILE``) under all four strategies,
  streaming views against a cold refresh, and the UNION combine's
  seen-set.
"""

import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.algorithms import bellman_ford, pagerank, tc, wcc
from repro.core.algorithms.common import load_graph, prepare_transition
from repro.datasets import preferential_attachment
from repro.datasets.generators import random_dag
from repro.relational import REFERENCE_PROFILE, Engine
from repro.relational.database import Database
from repro.relational.errors import ConstraintError
from repro.relational.physical.blocks import RowsColumns
from repro.relational.recursive import RecursiveExecutor
from repro.relational.relation import Relation
from repro.relational.schema import Column, Schema
from repro.relational.strategies import (
    UNION_BY_UPDATE_STRATEGIES,
    apply_union_by_update,
    consolidate_delta,
)
from repro.relational.table import Table
from repro.relational.types import SqlType

@pytest.fixture
def array_merges(monkeypatch):
    """Records whether each merge's array form produced a result."""
    runs = []
    original = Table._merge_delta_arrays

    def recording(self, delta, key_column):
        result = original(self, delta, key_column)
        runs.append(result is not None)
        return result

    monkeypatch.setattr(Table, "_merge_delta_arrays", recording)
    return runs


def identity(rows):
    """Rows as values that tell ``1`` from ``1.0`` from ``True`` and
    ``0.0`` from ``-0.0``, and equate NaNs."""
    def cell(value):
        if isinstance(value, float):
            if value != value:
                return ("nan",)
            return ("float", value, math.copysign(1.0, value))
        return (type(value).__name__, value)
    return [tuple(map(cell, row)) for row in rows]


def schema_of(*types, key=()):
    names = ("ID", "a", "b")[:len(types)]
    return Schema(tuple(Column(n, t) for n, t in zip(names, types)),
                  tuple(key))


def batch_backed(schema, rows):
    """*rows* the way a block-pipeline plan root hands them over."""
    return Relation.from_batch(schema, RowsColumns(rows, schema.arity))


def merge_outcome(storage, schema, base, delta_rows, key=("ID",),
                  enforce_key=False, index=None):
    """What ``merge_delta_rebuild`` leaves behind — or raises — on a
    table of *storage*: the columnar one gets a batch-backed delta."""
    table = Table("R", schema, enforce_key=enforce_key, storage=storage)
    table.insert_many(base)
    if index:
        table.create_index("ix", index, "hash")
    delta = (batch_backed(schema, delta_rows) if storage == "columnar"
             else Relation(schema, delta_rows))
    try:
        counts = table.merge_delta_rebuild(delta, key)
    except Exception as error:  # compared, not swallowed
        return (type(error).__name__, str(error)), identity(table.rows)
    return counts, identity(table.rows)


def assert_merge_matches_rows(schema, base, delta_rows, **kwargs):
    expected = merge_outcome("rows", schema, base, delta_rows, **kwargs)
    got = merge_outcome("columnar", schema, base, delta_rows, **kwargs)
    assert got == expected
    return got


# -- merge: property ------------------------------------------------------------

value_types = st.sampled_from([SqlType.INTEGER, SqlType.DOUBLE])
small_ints = st.integers(-4, 4)
small_floats = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -3.75, 4.0,
                                float("inf"), float("-inf")])
#: what lands in a column of either type inside the envelope; an inf into
#: an INTEGER column is outside it (and raises in both tables alike)
delta_values = st.one_of(small_ints, small_floats)


@st.composite
def merges(draw):
    types = (SqlType.INTEGER, draw(value_types), draw(value_types))
    n = draw(st.integers(1, 8))
    keys = draw(st.permutations(range(n)))
    base_values = draw(st.lists(st.tuples(small_ints, small_ints),
                                min_size=n, max_size=n))
    base = [(k, a, b) for k, (a, b) in zip(keys, base_values)]
    # A delta over any subset of old keys plus a few new ones, shuffled;
    # most draws copy some old rows unchanged.
    delta_keys = draw(st.lists(st.integers(0, n + 3), unique=True,
                               min_size=1, max_size=n + 4))
    by_key = {row[0]: row for row in base}
    delta = []
    for k in delta_keys:
        if k in by_key and draw(st.booleans()):
            delta.append(by_key[k])
        else:
            delta.append((k, draw(delta_values), draw(delta_values)))
    return schema_of(*types), base, delta


@given(case=merges())
@settings(max_examples=300, deadline=None)
def test_array_merge_matches_the_row_storage_table(case):
    assert_merge_matches_rows(*case)


# -- merge: the envelope, edge by edge -------------------------------------------

II = schema_of(SqlType.INTEGER, SqlType.INTEGER)
ID_ = schema_of(SqlType.INTEGER, SqlType.DOUBLE)
BASE = [(0, 10), (1, 11), (2, 12), (3, 13)]

INSIDE = {
    "unchanged matches": (II, BASE, [(1, 11), (3, 13)]),
    "partial delta": (II, BASE, [(2, 7)]),
    "whole-table delta in another order": (
        II, BASE, [(3, 1), (1, 2), (0, 3), (2, 4)]),
    "new keys appended in delta order": (
        II, BASE, [(9, 1), (2, 5), (7, 2), (5, 3)]),
    "float into INTEGER truncates": (
        II, BASE, [(0, 2.9), (1, -2.9), (2, 3.0)]),
    "int into DOUBLE widens": (ID_, [(0, 1.0), (1, 2.0)], [(0, 3), (2, 4)]),
    "int/float-flagged column into INTEGER": (
        II, BASE, [(0, 5), (1, 6.0), (2, 7), (3, 8.5)]),
    "int/float-flagged column into DOUBLE": (
        ID_, [(0, 1.0), (1, 2.0)], [(0, 5), (1, 6.5)]),
    "negative zero over zero is no change, and is stored": (
        ID_, [(0, 0.0), (1, -0.0)], [(0, -0.0), (1, 0.0)]),
    "infinity into DOUBLE": (
        ID_, [(0, 1.0), (1, 2.0)], [(0, float("inf")), (1, float("-inf"))]),
    "duplicate keys in the table all take the new row": (
        II, [(0, 1), (1, 2), (1, 3)], [(1, 9)]),
    "float key into the INTEGER key column": (II, BASE, [(1.0, 5), (6.0, 6)]),
}


@pytest.mark.parametrize("case", sorted(INSIDE))
def test_inside_the_envelope_merges_on_arrays(case, array_merges):
    assert_merge_matches_rows(*INSIDE[case])
    assert array_merges == [True]


OUTSIDE = {
    "NULL key": (II, BASE, [(None, 1), (1, 2)]),
    "NULL value": (II, BASE, [(0, None), (1, 2)]),
    "NULL in the table": (II, [(0, None), (1, 1)], [(0, 2), (1, 3)]),
    "NaN": (ID_, [(0, 1.0), (1, 2.0)], [(0, float("nan")), (1, 3.0)]),
    "bool value": (II, BASE, [(0, True), (1, 2)]),
    "bool key": (II, BASE, [(True, 5), (2, 2)]),
    "infinity into INTEGER": (II, BASE, [(0, float("inf")), (1, 2)]),
    "float beyond int64 into INTEGER": (II, BASE, [(0, 2.0 ** 63), (1, 2)]),
    "int beyond int64": (II, BASE, [(0, 2 ** 63), (1, 2)]),
    "int beyond 2**53 into DOUBLE": (
        ID_, [(0, 1.0), (1, 2.0)], [(0, 2 ** 53 + 1), (1, 3)]),
    "sparse keys": (II, BASE, [(0, 1), (10 ** 9, 2)]),
    "sparse keys in the table": (
        II, [(0, 1), (10 ** 9, 2)], [(0, 5), (10 ** 9, 6)]),
    "duplicate delta keys": (II, BASE, [(1, 5), (1, 5), (2, 6)]),
    "conflicting delta keys": (II, BASE, [(1, 5), (2, 6), (1, 7)]),
    "delta keys equal after coercion": (II, BASE, [(1.2, 5), (1.7, 6)]),
    "text column": (schema_of(SqlType.INTEGER, SqlType.TEXT),
                    [(0, "a"), (1, "b")], [(0, "c"), (1, "d")]),
    "empty table": (II, [], [(0, 1), (1, 2)]),
}


@pytest.mark.parametrize("case", sorted(OUTSIDE))
def test_outside_the_envelope_falls_back_to_the_list_merge(case,
                                                           array_merges):
    counts, _ = assert_merge_matches_rows(*OUTSIDE[case])
    assert array_merges == [False]
    if case in ("infinity into INTEGER", "float beyond int64 into INTEGER"):
        # the first raises in both tables alike; the second is a cast
        # numpy cannot make and Python can
        assert (counts[0] == "ValueError") == (case.startswith("infinity"))


def test_key_constraint_declines(array_merges):
    keyed = schema_of(SqlType.INTEGER, SqlType.INTEGER, key=("ID",))
    assert_merge_matches_rows(keyed, BASE, [(1, 5), (8, 6)],
                              enforce_key=True)
    assert array_merges == [False]


def test_secondary_index_declines_and_is_maintained(array_merges):
    table = Table("R", II, enforce_key=False, storage="columnar")
    table.insert_many(BASE)
    table.create_index("ix", ["a"], "hash")
    assert table.merge_delta_rebuild(
        batch_backed(II, [(1, 5), (8, 6)]), ("ID",)) == (1, 1)
    assert array_merges == [False]
    assert table.indexes["ix"].lookup((5,)) == [(1, 5)]
    assert_merge_matches_rows(II, BASE, [(1, 5), (8, 6)], index=["a"])


def test_two_key_columns_take_the_row_merge(array_merges):
    three = schema_of(SqlType.INTEGER, SqlType.INTEGER, SqlType.INTEGER)
    base = [(0, 0, 1), (0, 1, 2), (1, 0, 3)]
    assert_merge_matches_rows(three, base, [(0, 1, 9), (2, 2, 4)],
                              key=("ID", "a"))
    assert array_merges == []  # the columnar fast path is one key column


def test_rows_backed_delta_merges_on_arrays(array_merges):
    # One exact_array per column of the delta's rows; what the arrays
    # cannot hold (a NULL, TEXT) takes the row merge.
    text = schema_of(SqlType.INTEGER, SqlType.TEXT)
    cases = [(II, BASE, [(1, 5)], True),
             (II, BASE, [(0, 2.9), (9, 1)], True),
             (II, BASE, [(0, None), (1, 2)], False),
             (text, [(0, "a"), (1, "b")], [(0, "c")], False)]
    for schema, base, delta_rows, on_arrays in cases:
        expected = merge_outcome("rows", schema, base, delta_rows)
        table = Table("R", schema, enforce_key=False, storage="columnar")
        table.insert_many(base)
        array_merges.clear()
        counts = table.merge_delta_rebuild(Relation(schema, delta_rows),
                                           ("ID",))
        assert (counts, identity(table.rows)) == expected
        assert array_merges == [on_arrays]


# -- consolidate -------------------------------------------------------------------

consolidate_rows = st.lists(
    st.tuples(st.one_of(st.integers(0, 4), st.sampled_from([1.0, 2.5])),
              st.one_of(small_ints, small_floats)), max_size=8)


def consolidate_outcome(delta):
    try:
        return identity(consolidate_delta(delta, ("ID",)).rows)
    except ConstraintError as error:
        return str(error)


@given(rows=consolidate_rows)
@settings(max_examples=200, deadline=None)
def test_consolidate_on_the_key_vector_matches_the_row_loop(rows):
    assert consolidate_outcome(batch_backed(ID_, rows)) \
        == consolidate_outcome(Relation(ID_, rows))


def test_unique_key_vector_leaves_the_rows_unbuilt():
    delta = batch_backed(II, [(3, 1), (1, 2), (2, 3)])
    assert consolidate_delta(delta, ("ID",)) is delta
    assert delta._rows is None


def test_duplicates_and_conflicts_are_the_row_loops():
    collapsed = consolidate_delta(
        batch_backed(II, [(1, 5), (2, 6), (1, 5)]), ("ID",))
    assert collapsed.rows == ((1, 5), (2, 6))
    with pytest.raises(ConstraintError, match=r"key \(1,\): \(1, 5\) vs"
                                              r" \(1, 7\)"):
        consolidate_delta(batch_backed(II, [(2, 1), (2, 3), (1, 7), (1, 5)]),
                          ("ID",))


@pytest.mark.parametrize("strategy", UNION_BY_UPDATE_STRATEGIES)
def test_every_strategy_takes_a_batch_backed_delta(strategy):
    """``merge`` and ``update_from`` are per-row by definition and read the
    delta's rows; the set-oriented strategies may not have to."""
    outcomes = []
    for storage in ("rows", "columnar"):
        database = Database(storage=storage)
        table = database.create_temp_table("R", II)
        table.insert_many(BASE)
        delta = (batch_backed(II, [(2, 7.0), (1, 11), (6, 1)])
                 if storage == "columnar"
                 else Relation(II, [(2, 7.0), (1, 11), (6, 1)]))
        table = apply_union_by_update(database, table, delta, ("ID",),
                                      strategy)
        outcomes.append(identity(table.rows))
    assert outcomes[0] == outcomes[1]


# -- store and relation -------------------------------------------------------------


def test_a_snapshot_keeps_its_values_across_later_merges(array_merges):
    table = Table("R", ID_, enforce_key=False, storage="columnar")
    table.insert_many([(0, 1.0), (1, 2.0), (2, 3.0)])
    table.merge_delta_rebuild(batch_backed(ID_, [(1, 20.0)]), ("ID",))
    first = table.snapshot()
    assert first.batch is not None and first._rows is None
    table.merge_delta_rebuild(batch_backed(ID_, [(1, 21.0), (5, 5.0)]),
                              ("ID",))
    second = table.snapshot()
    table.insert((9, 9.0))  # a mutation the vectors cannot take
    table.merge_delta_rebuild(batch_backed(ID_, [(0, -1.0)]), ("ID",))
    assert array_merges == [True, True, True]
    assert first.rows == ((0, 1.0), (1, 20.0), (2, 3.0))
    assert second.rows == ((0, 1.0), (1, 21.0), (2, 3.0), (5, 5.0))
    assert list(table.rows) == [(0, -1.0), (1, 21.0), (2, 3.0), (5, 5.0),
                                (9, 9.0)]


def test_the_vector_overlay_serves_every_read_and_every_write():
    table = Table("R", II, enforce_key=False, storage="columnar")
    table.insert_many(BASE)
    table.merge_delta_rebuild(batch_backed(II, [(1, 5.0), (7, 6)]), ("ID",))
    store = table.rows
    assert store.vectors() is not None
    assert len(store) == 5
    assert store.array(1).tolist() == [10, 5, 12, 13, 6]
    assert store.column(0) == [0, 1, 2, 3, 7]
    assert identity(store.materialized()) == identity(
        [(0, 10), (1, 5), (2, 12), (3, 13), (7, 6)])
    assert store.join_index((0,), "positions")[0][7] == [4]
    store.drop_caches()
    assert store[4] == (7, 6)
    size = store.size_bytes()  # the vectors' bytes; the form stays
    assert size > 0 and store.array(0).tolist() == [0, 1, 2, 3, 7]
    store[0] = (0, 99)
    assert store.vectors() is None
    store.append((8, 1))
    store.delete_positions([1])
    assert list(store) == [(0, 99), (2, 12), (3, 13), (7, 6), (8, 1)]
    assert store.column(1) == [99, 12, 13, 6, 1]
    table.merge_delta_rebuild(batch_backed(II, [(2, 0), (0, 1)]), ("ID",))
    assert store.vectors() is not None
    table.truncate()  # back to the empty vector form of II's types
    assert [len(vector.data) for vector in store.vectors()] == [0, 0]
    assert list(store) == []


def test_a_batch_backed_relation_is_the_tuples_it_stands_for():
    rows = [(1, 1.5), (2, 2.5), (2, 2.5)]

    class Counted(RowsColumns):
        built = 0

        def rows(self):
            Counted.built += 1
            return super().rows()

    relation = Relation.from_batch(ID_, Counted(rows, 2))
    plain = Relation(ID_, rows)
    assert len(relation) == 3 and bool(relation)
    renamed = relation.rename_columns(("K", "V"))
    assert Counted.built == 0  # none of these needed the tuples
    assert relation == plain and plain == relation
    assert hash(relation) == hash(plain)
    assert pickle.loads(pickle.dumps(relation)) == plain
    assert list(relation) == rows
    assert relation.union_all(plain).rows == tuple(rows + rows)
    assert relation.distinct().rows == ((1, 1.5), (2, 2.5))
    assert relation.to_dict() == {1: 1.5, 2: 2.5}
    assert Counted.built == 1
    assert renamed.schema.names == ("K", "V") and len(renamed) == 3
    assert not Relation.from_batch(ID_, RowsColumns([], 2))
    restored = pickle.loads(pickle.dumps(plain))
    assert restored == plain and restored.batch is None


# -- the loop -----------------------------------------------------------------------


def fixpoint_engine(nodes, dialect="oracle", **kwargs):
    graph = preferential_attachment(nodes, 3.0, directed=True, seed=5)
    engine = Engine(dialect, **kwargs)
    load_graph(engine, graph)
    prepare_transition(engine)
    wcc.prepare_symmetric_edges(engine)
    return engine, graph


def trajectory(result):
    return [(s.iteration, s.delta_rows, s.total_rows, s.inserted,
             s.overwritten, s.pruned) for s in result.per_iteration]


@pytest.mark.parametrize("strategy", UNION_BY_UPDATE_STRATEGIES)
def test_iteration_statistics_best_equals_default(strategy, array_merges):
    # UPDATE ... FROM is PostgreSQL's; the other three are on offer in
    # every dialect
    dialect = "postgres" if strategy == "update_from" else "oracle"
    default, graph = fixpoint_engine(70, dialect, **REFERENCE_PROFILE)
    best, _ = fixpoint_engine(70, dialect)
    for engine in (default, best):
        engine.union_by_update_strategy = strategy
    statements = (pagerank.sql(graph.num_nodes, 0.85, 6), wcc.sql(),
                  bellman_ford.sql(0))
    for sql in statements:
        expected = default.execute_detailed(sql)
        got = best.execute_detailed(sql)
        assert trajectory(got) == trajectory(expected)
        assert identity(sorted(got.relation.rows)) \
            == identity(sorted(expected.relation.rows))
    if strategy == "full_outer_join":
        # every iteration delivers a table-sized delta: all on arrays
        assert array_merges and all(array_merges)
    elif strategy in ("merge", "update_from"):
        assert array_merges == []


def test_the_recursive_relation_stays_in_vectors_between_iterations(
        monkeypatch):
    """Under ``best`` no snapshot of R and no delta builds row tuples
    inside the loop: the only rows built are the statement's result."""
    built = []
    original = Relation.rows.fget

    def recording(self):
        if self._rows is None:
            built.append(len(self))
        return original(self)

    monkeypatch.setattr(Relation, "rows", property(recording))
    best, graph = fixpoint_engine(70)
    statements = (pagerank.sql(graph.num_nodes, 0.85, 6), wcc.sql(),
                  bellman_ford.sql(0))
    for sql in statements:
        best.execute(sql)  # first run: loads the temp table from rows
    built.clear()
    for sql in statements:
        result = best.execute_detailed(sql)
        assert result.iterations > 2
    # per statement: the first iteration's delta meets a table still in
    # list form (its initial load); after that, only the final result
    assert len(built) <= 2 * len(statements)


def test_streaming_views_equal_a_cold_refresh():
    from repro.graphsystems.graph import Graph

    def graph_of(edges, nodes):
        graph = Graph(directed=True)
        for node in nodes:
            graph.add_node(node)
        for u, v, w in edges:
            graph.add_edge(u, v, w)
        return graph

    def register(engine, graph):
        manager = engine.streaming
        manager.attach_graph(graph)
        manager.register_view("pagerank", "pagerank", iterations=6)
        manager.register_view("wcc", "wcc")
        manager.register_view("sssp", "sssp", source=0)
        return manager

    seed = preferential_attachment(60, 3.0, directed=True, seed=9)
    edges = list(seed.weighted_edges())
    best = Engine("oracle")
    manager = register(best, graph_of(edges, seed.nodes()))
    batches = (
        {"inserts": {"E": [(3, 41, 1.0), (41, 7, 1.0)]}},
        {"deletes": {"E": [edges[0][:2], edges[5][:2]]}},
        {"inserts": {"E": [(0, 59, 1.0)]}},
    )
    for batch in batches:
        best.apply_batch(**batch)
    final = manager.graph
    cold = register(Engine("oracle", **REFERENCE_PROFILE),
                    graph_of(final.weighted_edges(), final.nodes()))
    for name, view in manager.views.items():
        assert view.values == cold.views[name].values, name


def closure_engine(kwargs):
    dag = random_dag(60, 2.0, seed=4)
    engine = Engine("oracle", **kwargs)
    load_graph(engine, dag)
    return engine, dag


@pytest.mark.parametrize("kwargs", [REFERENCE_PROFILE, {}],
                         ids=["default", "best"])
def test_union_combine_inserts_once_per_iteration(kwargs, monkeypatch):
    """TC used to call ``Table.insert`` once per fresh row.  Each write is
    one bulk call — ``insert_many`` rows on the set path,
    ``insert_relation`` vectors on the array path — counted outermost."""
    single, bulk, depth = [], [], [0]
    insert = Table.insert

    def counting_insert(self, row):
        single.append(self.name)
        return insert(self, row)

    def counting_bulk(method):
        def counting(self, rows):
            depth[0] += 1
            try:
                count = method(self, rows)
            finally:
                depth[0] -= 1
            if not depth[0]:
                bulk.append((self.name, count))
            return count
        return counting

    engine, dag = closure_engine(kwargs)
    monkeypatch.setattr(Table, "insert", counting_insert)
    monkeypatch.setattr(Table, "insert_many", counting_bulk(Table.insert_many))
    monkeypatch.setattr(Table, "insert_relation",
                        counting_bulk(Table.insert_relation))
    result = engine.execute_detailed(tc.sql())
    assert {(row[0], row[1]) for row in result.relation.rows} \
        == set(tc.run_reference(dag).values)
    assert single == []
    closure = [count for name, count in bulk if name.lower() == "tc"]
    # the initial load, then one bulk insert per iteration that found rows
    assert len(closure) == result.iterations
    assert closure[1:] == [s.inserted for s in result.per_iteration[:-1]]


@pytest.mark.parametrize("kwargs", [REFERENCE_PROFILE, {}],
                         ids=["default", "best"])
def test_union_combine_builds_the_seen_set_once(kwargs, monkeypatch):
    """... and to rebuild ``set(table.rows)`` every iteration — as the
    array path would its set of packed keys (a bitmap here)."""
    rebuilt = []
    seen_rows = RecursiveExecutor._seen_rows
    seen_keys = RecursiveExecutor._seen_keys

    def counting_seen_rows(self, table):
        rows = seen_rows(self, table)
        rebuilt.append(self._union_seen is None
                       or rows is not self._union_seen[2])
        return rows

    def counting_seen_keys(self, table, candidates):
        seen = seen_keys(self, table, candidates)
        rebuilt.append(self._union_keys is None
                       or seen[1] is not self._union_keys[3])
        return seen

    monkeypatch.setattr(RecursiveExecutor, "_seen_rows", counting_seen_rows)
    monkeypatch.setattr(RecursiveExecutor, "_seen_keys", counting_seen_keys)
    engine, _ = closure_engine(kwargs)
    result = engine.execute_detailed(tc.sql())
    assert rebuilt == [True] + [False] * (result.iterations - 1)


def test_the_seen_set_is_rebuilt_after_a_foreign_mutation():
    engine = Engine("oracle")
    executor = RecursiveExecutor(engine.database, engine.dialect,
                                 engine.policy)
    table = engine.database.create_temp_table("R", II)
    table.insert_many(BASE)
    seen = executor._seen_rows(table)
    executor._union_seen = (table, table.statistics.version, seen)
    assert executor._seen_rows(table) is seen
    table.insert((9, 9))
    fresh = executor._seen_rows(table)
    assert fresh is not seen and fresh == set(table.rows)
    other = engine.database.create_temp_table("S", II)
    assert executor._seen_rows(other) == set()


def union_on_arrays():
    """An executor, a columnar temp table holding BASE, and a function
    running one array UNION combine of some rows into it (→ inserted)."""
    engine = Engine("oracle")
    executor = RecursiveExecutor(engine.database, engine.dialect,
                                 engine.policy)
    table = engine.database.create_temp_table("R", II)
    table.insert_many(BASE)

    def combine(*rows):
        delta = Relation.from_batch(II, RowsColumns(list(rows), 2))
        return executor._union_arrays(table, [delta])[2].inserted

    return executor, table, combine


def test_the_key_set_is_rebuilt_after_a_foreign_mutation():
    """The array twin: ``_union_keys`` serves while the last UNION combine
    is the table's last mutation — its bitmap marked in place — and a
    foreign ``insert`` forces a rebuild, or that row would count as new."""
    executor, table, combine = union_on_arrays()
    assert combine((0, 11), (1, 10)) == 2
    kept = executor._union_keys[3]
    assert kept.dtype == bool
    assert combine((2, 13), (0, 11)) == 1
    assert executor._union_keys[3] is kept
    table.insert((3, 10))
    assert combine((3, 10), (3, 11)) == 1
    assert executor._union_keys[3] is not kept
    assert sorted(table.rows) == sorted(
        BASE + [(0, 11), (1, 10), (2, 13), (3, 10), (3, 11)])


def test_a_failed_union_append_leaves_the_key_set_unmarked(monkeypatch):
    """Fresh keys join the bitmap only once the append stood: after one
    that failed, the same rows are fresh again."""
    executor, table, combine = union_on_arrays()
    assert combine((0, 11)) == 1

    def failing(self, relation):
        raise RuntimeError("append failed")

    with monkeypatch.context() as patch:
        patch.setattr(Table, "insert_relation", failing)
        with pytest.raises(RuntimeError):
            combine((1, 12), (0, 11))
    assert combine((1, 12), (0, 11)) == 1
    assert sorted(table.rows) == sorted(BASE + [(0, 11), (1, 12)])


@pytest.mark.parametrize("kwargs", [REFERENCE_PROFILE, {}],
                         ids=["default", "best"])
def test_union_dedups_on_produced_tuples_and_stores_coerced_rows(kwargs):
    """A candidate is compared as the branch produced it — against the
    stored rows and against this iteration's earlier candidates — and
    joins the seen-set as the table stored it.  Where coercion changes a
    value the two differ: ``(2, 0.5)`` is stored as ``(2, 0)`` in the
    INTEGER column and so is fresh again every iteration, while
    ``(3, 1.0)`` equals the stored ``(3, 1)`` and is not."""
    engine = Engine("oracle", **kwargs)
    engine.database.register("S", Relation.from_pairs(("N", "d"), [(1, 0)]))
    engine.database.register("E", Relation.from_pairs(
        ("F", "T", "ew"), [(1, 2, 0.5), (2, 3, 0.5), (1, 3, 1.0)]))
    result = engine.execute_detailed(
        "with R(N, d) as ((select N, d from S) union"
        " (select E.T, R.d + E.ew from R, E where R.N = E.F)"
        " maxrecursion 3) select N, d from R")
    assert [s.inserted for s in result.per_iteration] == [2, 2, 2]
    assert identity(sorted(result.relation.rows)) == identity(
        [(1, 0), (2, 0), (2, 0), (2, 0), (3, 0), (3, 0), (3, 1)])
