"""Typed base-table columns across mutations, and ANALYZE from them.

A block-backed ``ColumnStore`` carries its cached plain int64/float64
column arrays across ``append``/``extend``/``delete_positions``
(concatenated or filtered copies — never written in place), and
``Table.analyze`` computes statistics from those arrays when the store
already holds one for every column.  The row paths are the oracles: the
carried arrays must equal ``exact_array`` of a fresh decode, and vector
ANALYZE must equal row ANALYZE ``repr`` for ``repr``.  A spy shows a
steady-state streaming cycle decodes no sealed block, row-ANALYZEs
neither ``E`` nor ``ES``, and does not ANALYZE the temporary
``__iterations__`` at all.
"""

import copy
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import preferential_attachment
from repro.relational import Engine
from repro.relational.columnar.encodings import ColumnCodec
from repro.relational.columnar.store import ColumnBlock, ColumnStore
from repro.relational.physical.blocks import ArrayVector, exact_array
from repro.relational.relation import Relation
from repro.relational.schema import Column, Schema
from repro.relational.statistics import MCV_LIMIT, TableStatistics
from repro.relational.table import Table
from repro.relational.types import SqlType

INT, DOUBLE = SqlType.INTEGER, SqlType.DOUBLE
INT64_MAX = 2 ** 63 - 1
INT64_MIN = -2 ** 63


def identity(values):
    """Values that tell ``1`` from ``1.0`` and ``0.0`` from ``-0.0`` (and
    compare NaNs equal)."""
    return list(map(repr, values))


def statistics_repr(statistics):
    return repr((statistics.row_count, statistics.fresh,
                 sorted(statistics.columns.items())))


# -- vector ANALYZE against row ANALYZE ---------------------------------------

#: few distinct values, so counts tie; zeros of both signs; int64 bounds
ints = st.one_of(st.integers(-3, 3),
                 st.sampled_from([INT64_MIN, INT64_MIN + 1, INT64_MAX,
                                  INT64_MAX - 1]))
wide_ints = st.integers(INT64_MIN, INT64_MAX)
floats = st.one_of(st.sampled_from([0.0, -0.0, 1.5, -2.0, float("inf"),
                                    float("-inf")]),
                   st.floats(allow_nan=False, width=64))


@st.composite
def columns(draw):
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["int", "wide", "float", "constant",
                                 "many"]))
    if kind == "int":
        values = draw(st.lists(ints, min_size=n, max_size=n))
    elif kind == "wide":
        values = draw(st.lists(wide_ints, min_size=n, max_size=n))
    elif kind == "float":
        values = draw(st.lists(floats, min_size=n, max_size=n))
    elif kind == "constant":
        values = [draw(st.one_of(ints, floats))] * n
    else:  # more distinct values than MCV_LIMIT, counts tied in places
        values = draw(st.lists(st.integers(0, 3 * MCV_LIMIT),
                               min_size=2 * MCV_LIMIT, max_size=80))
    return values


def assert_vector_analyze_is_row_analyze(column_values):
    """``repr`` tells ``1`` from ``1.0`` and ``0.0`` from ``-0.0``, so
    equal reprs mean the same values, objects' types and signs too."""
    schema = Schema(tuple(
        Column(f"c{j}", DOUBLE if isinstance(values[0], float) else INT)
        for j, values in enumerate(column_values)))
    by_rows = TableStatistics()
    by_rows.refresh(Relation(schema, list(zip(*column_values))))
    by_vectors = TableStatistics()
    assert by_vectors.refresh_from_vectors(
        schema, [exact_array(values) for values in column_values])
    assert statistics_repr(by_vectors) == statistics_repr(by_rows)


@given(first=columns(), second=columns())
@settings(max_examples=400, deadline=None)
def test_vector_analyze_equals_row_analyze(first, second):
    n = min(len(first), len(second))
    assert_vector_analyze_is_row_analyze([first[:n], second[:n]])


@pytest.mark.parametrize("values", [
    [0.0, -0.0, -0.0, 0.0],          # one distinct value: the first zero
    [-0.0, 0.0, 1.0, 1.0],           # min keeps -0.0, the MCV ties on count
    [7],                             # a single row
    [5, 5, 5, 5],                    # all equal
    [INT64_MAX, INT64_MIN, 0, INT64_MAX],
    list(range(3 * MCV_LIMIT, 0, -1)) + [4, 9, 4],  # ties past MCV_LIMIT
])
def test_named_edge_cases(values):
    assert_vector_analyze_is_row_analyze([values])


def test_nan_declines_and_changes_nothing():
    statistics = TableStatistics()
    schema = Schema((Column("x", DOUBLE),))
    assert not statistics.refresh_from_vectors(
        schema, [ArrayVector(np.array([1.0, float("nan")]))])
    assert not statistics.fresh and statistics.columns == {}


def test_analyze_takes_vectors_only_when_the_store_holds_them(monkeypatch):
    schema = Schema((Column("a", INT), Column("b", DOUBLE)))
    rows = [(i % 5, float(i % 3) - 1.0) for i in range(40)]
    table = Table("R", schema, storage="columnar")
    table.rows.morsel = 8
    table.insert_many(rows)
    oracle = Table("R", schema, storage="rows")
    oracle.insert_many(rows)
    oracle.analyze()
    ran = []
    original = TableStatistics.refresh_from_vectors

    def recording(self, *args):
        ran.append(original(self, *args))
        return ran[-1]

    monkeypatch.setattr(TableStatistics, "refresh_from_vectors", recording)
    table.analyze()           # nothing held yet: the row path
    assert ran == []
    table.rows.array(0)
    table.analyze()           # one column held, one not: still rows
    assert ran == []
    table.rows.array(1)
    table.analyze()
    assert ran == [True]
    assert statistics_repr(table.statistics) == \
        statistics_repr(oracle.statistics)


# -- arrays carried across mutations ------------------------------------------

#: column 0 ints (some beyond int64), column 1 floats (NaN, -0.0),
#: column 2 mixes ints and floats (a flagged array: never carried)
cell_values = (st.one_of(st.integers(-4, 4), st.sampled_from([2 ** 64])),
               st.one_of(st.sampled_from([0.0, -0.0, 2.5, float("nan")]),
                         st.floats(-8, 8, width=64)),
               st.one_of(st.integers(-2, 2), st.sampled_from([0.5, -0.0])))
row_values = st.tuples(*cell_values)


@st.composite
def mutations(draw):
    ops = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["append", "extend", "delete", "read"]))
        if kind == "append":
            ops.append(("append", draw(row_values)))
        elif kind == "extend":
            ops.append(("extend", draw(st.lists(row_values, max_size=9))))
        elif kind == "delete":
            ops.append(("delete", draw(st.lists(st.integers(0, 60),
                                                max_size=6))))
        else:
            ops.append(("read", draw(st.integers(0, 2))))
    return ops


def plain_rows(n, seed):
    rng = random.Random(seed)
    return [(rng.randrange(-5, 5), rng.choice([0.0, -0.0, 1.25, 3.5]),
             rng.randrange(3)) for _ in range(n)]


def fresh_column(store, j):
    """Column *j* decoded from the blocks, tombstones and tail of a copy
    with every cache dropped."""
    clone = copy.deepcopy(store)
    clone.drop_caches()
    return clone.column(j)


def assert_held_arrays_are_exact(store, model):
    for j in range(store.arity):
        expected = [row[j] for row in model]
        held = store._held(j)
        if held is not None:
            fresh = exact_array(fresh_column(store, j))
            assert fresh is not None
            assert held.data.dtype == fresh.data.dtype
            assert identity(held.tolist()) == identity(fresh.tolist())
        assert identity(store.column(j)) == identity(expected)


@given(ops=mutations(), start=st.integers(0, 14), seed=st.integers(0, 99))
@settings(max_examples=200, deadline=None)
def test_held_arrays_track_appends_and_deletes(ops, start, seed):
    store = ColumnStore(3, morsel=4)  # tiny morsels: sealing, tombstones
    model = plain_rows(start, seed)
    store.extend(list(model))
    before = [store.array(j) for j in range(3)]
    saved = [None if v is None else v.data.copy() for v in before]
    for kind, arg in ops:
        if kind == "append":
            store.append(arg)
            model.append(arg)
        elif kind == "extend":
            store.extend(list(arg))
            model.extend(arg)
        elif kind == "delete":
            dead = {p for p in arg if p < len(model)}
            store.delete_positions(sorted(dead))
            model = [row for pos, row in enumerate(model) if pos not in dead]
        else:
            store.array(arg)
        assert len(store) == len(model)
        assert_held_arrays_are_exact(store, model)
    assert list(map(repr, store.materialized())) == list(map(repr, model))
    # Arrays handed out before the sequence were never written to.
    for vector, data in zip(before, saved):
        if vector is not None:
            assert vector.data.tolist() == data.tolist()


def test_steady_appends_and_deletes_keep_every_plain_array():
    store = ColumnStore(2, morsel=4)
    store.extend([(i, float(i)) for i in range(10)])
    held = [store.array(j) for j in range(2)]
    store.append((10, 10.0))
    store.extend([(11, 11.0), (12, 12.0)])
    # Appends are recorded, not copied in: one concatenation per read.
    assert store._arrays[0] is held[0]
    store.delete_positions([0, 5, 12])
    kept = store.held_vectors()
    assert kept is not None
    assert all(a is not b for a, b in zip(kept, held))
    assert kept[0].data.tolist() == [1, 2, 3, 4, 6, 7, 8, 9, 10, 11]
    for value in range(20, 30):
        store.append((value, float(value)))
    assert store.array(0).data.tolist()[-10:] == list(range(20, 30))
    # A value with no exact array of the column's dtype drops that one.
    store.append((2 ** 64, float("nan")))
    assert store.held_vectors() is None
    assert store._arrays == {}
    # Deleting every row keeps nothing (an empty column has no array).
    store = ColumnStore(1, morsel=4)
    store.extend([(1,), (2,)])
    store.array(0)
    store.delete_positions([0, 1])
    assert store.held_vectors() is None and store.array(0) is None


def test_snapshots_and_vector_batches_keep_their_old_values():
    schema = Schema((Column("a", INT), Column("b", DOUBLE)))
    table = Table("R", schema, storage="columnar")
    table.rows.morsel = 4
    table.insert_many([(i, i / 2) for i in range(9)])
    snapshot = table.snapshot()
    old_rows = list(snapshot.rows)
    arrays = [table.rows.array(j).data for j in range(2)]
    copies = [a.copy() for a in arrays]
    table.insert_many([(20, 1.5), (21, -0.0)])
    table.delete_by_key([(3,), (20,)], ("a",))
    assert list(snapshot.rows) == old_rows
    assert all(np.array_equal(a, c) for a, c in zip(arrays, copies))
    # A vector overlay's batch: a mutation leaves the shared vectors alone.
    store = ColumnStore(2, morsel=4)
    store.assign_vectors([ArrayVector(np.arange(5)),
                          ArrayVector(np.arange(5) / 4)])
    batch = store.vector_batch()
    store.append((9, 9.0))
    store.delete_positions([0])
    assert batch.array(0).data.tolist() == [0, 1, 2, 3, 4]
    assert batch.array(1).data.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert store.column(0) == [1, 2, 3, 4, 9]


@pytest.mark.parametrize("storage", ["rows", "columnar"])
def test_delete_positions_keeps_list_order(storage):
    from repro.relational.columnar import make_storage

    store = make_storage(storage, 2)
    if storage == "columnar":
        store.morsel = 3
    rows = [(i, -i) for i in range(11)]
    store.extend(list(rows))
    store.delete_positions([9, 0, 4, 10])
    assert list(store) == [row for i, row in enumerate(rows)
                           if i not in (0, 4, 9, 10)]


# -- the streaming write path -------------------------------------------------

BEST = dict(executor="batch", optimizer="cost", storage="columnar")


def streaming_engine(seed=5, storage="columnar"):
    engine = Engine("oracle", **{**BEST, "storage": storage})
    # > 2048 edges: E and ES each hold sealed blocks, so deletes tombstone.
    graph = preferential_attachment(1100, 4.0, directed=True, seed=seed)
    manager = engine.streaming
    manager.attach_graph(graph)
    manager.register_view("pagerank", "pagerank", iterations=5)
    manager.register_view("wcc", "wcc")
    manager.register_view("sssp", "sssp", source=0)
    return engine, graph


def run_cycle(engine, graph, rng):
    nodes = list(graph.nodes())
    taken = set(graph.edges())
    for size in (1, 8, 16):
        batch = []
        while len(batch) < size:
            u, v = rng.choice(nodes), rng.choice(nodes)
            if u != v and (u, v) not in taken:
                taken.add((u, v))
                batch.append((u, v, 1.0))
        engine.apply_batch(inserts={"E": batch})
    doomed = rng.sample(sorted(graph.edges()), 4)
    engine.apply_batch(deletes={"E": doomed})


@pytest.fixture
def storage_spy(monkeypatch):
    """Counts sealed-block decodes; records which statistics objects took
    the row path and which the vector path."""
    seen = {"decodes": 0, "rows": [], "vectors": []}

    def codecs(cls):
        yield cls
        for sub in cls.__subclasses__():
            yield from codecs(sub)

    for cls in set(codecs(ColumnCodec)):
        if "decode" in vars(cls):
            original = vars(cls)["decode"]

            def counting(self, _original=original):
                seen["decodes"] += 1
                return _original(self)

            monkeypatch.setattr(cls, "decode", counting)
    refresh = TableStatistics.refresh
    from_vectors = TableStatistics.refresh_from_vectors

    def row_refresh(self, relation):
        seen["rows"].append(self)
        return refresh(self, relation)

    def vector_refresh(self, schema, vectors):
        done = from_vectors(self, schema, vectors)
        if done:
            seen["vectors"].append(self)
        return done

    monkeypatch.setattr(TableStatistics, "refresh", row_refresh)
    monkeypatch.setattr(TableStatistics, "refresh_from_vectors",
                        vector_refresh)
    return seen


def test_steady_ingest_cycle_decodes_nothing_and_analyzes_vectors(
        storage_spy):
    engine, graph = streaming_engine()
    rng = random.Random(3)
    for _ in range(2):
        run_cycle(engine, graph, rng)
    # The load carries every table's arrays: not even the first cycles
    # decode a block.
    assert storage_spy["decodes"] == 0
    # The spy counts: one explicit block decode is one.
    block = next(block for block in engine.database.table("E").rows._blocks
                 if isinstance(block, ColumnBlock))
    block.decode_column(0)
    assert storage_spy["decodes"] == 1
    storage_spy.update(decodes=0, rows=[], vectors=[])
    run_cycle(engine, graph, rng)
    database = engine.database
    e, es = (database.table(name).statistics for name in ("E", "ES"))
    iterations = database.table("__iterations__").statistics
    assert storage_spy["decodes"] == 0
    # the views' statements run on kept plans: nothing is planned, so
    # nothing is analyzed — __iterations__ (temporary) least of all
    assert storage_spy["rows"] == [] and storage_spy["vectors"] == []
    assert iterations.fresh is False and e.fresh is False
    # a fresh plan ANALYZEs the stale edge tables, from their vectors
    engine.explain("select count(*) as c from E, ES where E.T = ES.F")
    assert storage_spy["decodes"] == 0
    assert not any(s is e or s is es for s in storage_spy["rows"])
    assert any(s is e for s in storage_spy["vectors"])
    assert any(s is es for s in storage_spy["vectors"])


def estimates_after_mixed_batches(storage):
    from repro.core.algorithms import bellman_ford, wcc

    engine, graph = streaming_engine(seed=8, storage=storage)
    rng = random.Random(11)
    for _ in range(3):
        run_cycle(engine, graph, rng)
    database = engine.database
    stats = {name: statistics_repr(database.table(name).statistics)
             for name in ("E", "ES")}
    estimates = [re.findall(r"est_rows=\d+", engine.explain_analyze(sql))
                 for sql in (wcc.sql(), bellman_ford.sql(0))]
    return stats, estimates


def test_view_estimates_do_not_depend_on_the_analyze_path():
    """The same batches leave the same statistics and WCC/SSSP estimates
    behind whether ANALYZE read vectors (columnar) or rows (rows)."""
    columnar = estimates_after_mixed_batches("columnar")
    rows = estimates_after_mixed_batches("rows")
    assert all(columnar[1]) and columnar == rows
