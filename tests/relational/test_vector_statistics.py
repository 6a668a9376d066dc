"""Typed base-table columns across mutations, and ANALYZE from them.

A ``ColumnStore`` in its vector form keeps one plain int64/float64
vector per column across ``append``/``extend``/``delete_positions``
(concatenated or filtered copies — never written in place), and
``Table.analyze`` computes statistics from those vectors.  A list model
is the oracle for every store operation in every form, and row ANALYZE
for vector ANALYZE, ``repr`` for ``repr``.  A spy shows a steady-state
streaming cycle decodes no vector into a list, row-ANALYZEs neither
``E`` nor ``ES``, and does not ANALYZE the temporary ``__iterations__``
at all.
"""

import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import preferential_attachment
from repro.relational import Engine
from repro.relational.columnar import ColumnStore, make_storage
from repro.relational.physical.blocks import (
    ArrayColumns,
    ArrayVector,
    exact_array,
)
from repro.relational.relation import Relation
from repro.relational.schema import Column, Schema
from repro.relational.statistics import MCV_LIMIT, TableStatistics
from repro.relational.table import Table
from repro.relational.types import SqlType

INT, DOUBLE = SqlType.INTEGER, SqlType.DOUBLE
INT64_MAX = 2 ** 63 - 1
INT64_MIN = -2 ** 63
PAIR = Schema((Column("a", INT), Column("b", DOUBLE)))
#: the model store's columns: int64, float64 and int64 vectors when empty
TRIPLE = Schema((Column("a", INT), Column("b", DOUBLE), Column("c", INT)))


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
    """Vectors exactly in the vector form, rows in the row overlay — and
    the oracle's statistics either way."""
    schema = PAIR
    rows = [(i % 5, float(i % 3) - 1.0) for i in range(40)]
    oracle = Table("R", schema, storage="rows")
    oracle.insert_many(rows)
    oracle.analyze()
    ran = []
    original = TableStatistics.refresh_from_vectors

    def recording(self, *args):
        ran.append(original(self, *args))
        return ran[-1]

    monkeypatch.setattr(TableStatistics, "refresh_from_vectors", recording)
    table = Table("R", schema, storage="columnar")
    table.insert_many(rows)
    table.analyze()           # insert_many folds into vectors: the vectors
    assert ran == [True] and table.rows.vectors() is not None
    assert statistics_repr(table.statistics) == \
        statistics_repr(oracle.statistics)
    table.rows.assign(list(rows))
    table.rows.array(0)
    table.rows.array(1)
    table.analyze()           # the row overlay, arrays read or not: rows
    assert ran == [True] and table.rows.vectors() is None
    assert statistics_repr(table.statistics) == \
        statistics_repr(oracle.statistics)
    loaded = Table("R", schema, storage="columnar")
    loaded.load(rows)
    assert loaded.rows.vectors() is not None
    loaded.analyze()          # the vector form: its vectors
    assert ran == [True, True]
    assert statistics_repr(loaded.statistics) == \
        statistics_repr(oracle.statistics)


# -- the store against a list model ------------------------------------------

#: column 0 ints (some beyond int64), column 1 floats (NaN, -0.0),
#: column 2 mixes ints and floats (a flagged array: never a vector)
cell_values = (st.one_of(st.integers(-4, 4), st.sampled_from([2 ** 64])),
               st.one_of(st.sampled_from([0.0, -0.0, 2.5, float("nan")]),
                         st.floats(-8, 8, width=64)),
               st.one_of(st.integers(-2, 2), st.sampled_from([0.5, -0.0])))
#: rows every vector of the vector form holds exactly
plain_row = st.tuples(st.integers(-4, 4),
                      st.sampled_from([0.0, -0.0, 2.5, -1.0]),
                      st.integers(-2, 2))
row_values = st.one_of(plain_row, plain_row, st.tuples(*cell_values))
plain_batch = st.lists(plain_row, min_size=1, max_size=6)


@st.composite
def mutations(draw):
    ops = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from([
            "append", "extend", "delete", "setitem", "assign",
            "assign_vectors", "append_vectors", "drop_caches",
            "size_bytes", "read"]))
        if kind == "append":
            arg = draw(row_values)
        elif kind in ("extend", "assign"):
            arg = draw(st.lists(row_values, max_size=7))
        elif kind == "delete":
            arg = draw(st.lists(st.integers(0, 20), max_size=6))
        elif kind == "setitem":
            arg = (draw(st.integers(0, 16)), draw(row_values))
        elif kind in ("assign_vectors", "append_vectors"):
            arg = draw(plain_batch)
        elif kind == "read":
            arg = draw(st.sampled_from(["rows", "gather", "item"]))
        else:
            arg = None
        # check after the step, or leave appended rows pending
        ops.append((kind, arg, draw(st.booleans())))
    return ops


def plain_rows(n, seed):
    rng = random.Random(seed)
    return [(rng.randrange(-5, 5), rng.choice([0.0, -0.0, 1.25, 3.5]),
             rng.randrange(3)) for _ in range(n)]


def vectors_of(rows):
    return [exact_array(list(column)) for column in zip(*rows)]


def exact(vector):
    """A typed vector as comparable text (None stays None)."""
    if vector is None:
        return None
    return str(vector.data.dtype), identity(vector.tolist())


def fits(vector, values):
    """Whether *values* append to *vector* exactly in its dtype."""
    added = exact_array(values)
    return added is not None and added.ints is None \
        and added.data.dtype == vector.data.dtype


class Handed:
    """Every typed vector the store handed out, with a copy of its bytes."""

    def __init__(self):
        self.seen = []

    def __call__(self, vector):
        if vector is not None:
            self.seen.append((vector, vector.data.tobytes()))
        return vector

    def assert_unwritten(self):
        for vector, data in self.seen:
            assert vector.data.tobytes() == data


def apply(store, model, kind, arg):
    """One step on the store and on the list model; the model after it."""
    if kind == "append":
        store.append(arg)
        return model + [arg]
    if kind == "extend":
        store.extend(list(arg))
        return model + list(arg)
    if kind == "delete":
        dead = {p for p in arg if p < len(model)}
        store.delete_positions(sorted(dead))
        return [row for pos, row in enumerate(model) if pos not in dead]
    if kind == "setitem":
        pos, row = arg
        if pos >= len(model):
            with pytest.raises(IndexError):
                store[pos] = row
            return model
        store[pos] = row
        return model[:pos] + [row] + model[pos + 1:]
    if kind == "assign":
        store.assign(list(arg))
        return list(arg)
    if kind == "assign_vectors":
        store.assign_vectors(vectors_of(arg))
        return list(arg)
    if kind == "append_vectors":
        added = vectors_of(arg)
        old = vectors_of(model) if model else []
        takes = not model or all(
            before is not None and before.ints is None
            and before.data.dtype == after.data.dtype
            for before, after in zip(old, added))
        assert store.append_vectors(added) is takes
        return model + list(arg) if takes else model
    if kind == "drop_caches":
        store.drop_caches()
    elif kind == "size_bytes":
        in_vectors = store.vectors() is not None
        assert store.size_bytes() > 0
        assert (store.vectors() is not None) is in_vectors
    else:
        if arg == "rows":
            assert identity(store.materialized()) == identity(model)
        elif arg == "gather" and model:
            picks = [len(model) - 1, 0, len(model) // 2]
            assert identity(store.gather(picks)) == \
                identity([model[p] for p in picks])
        elif model:
            assert identity([store[-1]]) == identity([model[-1]])
    return model


def keeps_the_vector_form(store, model, kind, arg) -> bool:
    """Whether a step on a store in the vector form is an append or a
    delete its vectors take exactly, rows still pending included."""
    if store._vectors is None:
        return False
    rows = list(store._pending)
    if kind == "delete":
        dead = {p for p in arg if p < len(model)}
        if not dead or len(dead) == len(model):
            return False
    elif kind in ("append", "extend"):
        rows += [arg] if kind == "append" else arg
        if not rows:
            return False
    else:
        return False
    return not rows or all(fits(vector, [row[j] for row in rows])
                           for j, vector in enumerate(store._vectors))


@given(ops=mutations(), start=st.integers(0, 14), seed=st.integers(0, 99),
       vector_start=st.booleans())
@settings(max_examples=300, deadline=None)
def test_held_arrays_track_appends_and_deletes(ops, start, seed,
                                               vector_start):
    """Every operation of the store against a list model, from either
    form: contents, columns and typed vectors after each step; vectors
    handed out are never written; exact appends and deletes keep the
    vector form without decoding it."""
    store = ColumnStore(TRIPLE)
    model = plain_rows(start, seed)
    if not vector_start:
        store.assign(list(model))
    elif model:
        store.assign_vectors(vectors_of(model))
    handed = Handed()
    for kind, arg, check in ops:
        stays = keeps_the_vector_form(store, model, kind, arg)
        rows_before = store._rows
        model = apply(store, model, kind, arg)
        assert len(store) == len(model)
        if not check:
            continue
        if stays:
            assert handed(store.vectors()[0]) is not None
            assert store._col_cache == {}  # nothing decoded to lists
            if rows_before is None:
                assert store._rows is None  # nor to rows
        for j in range(3):
            expected = exact_array([row[j] for row in model])
            if not model and store.vectors() is not None:
                expected = store._empty[j]  # the schema's dtype, no rows
            assert exact(handed(store.array(j))) == exact(expected)
            assert identity(store.column(j)) == \
                identity([row[j] for row in model])
        handed.assert_unwritten()
    assert identity(store.materialized()) == identity(model)


def test_steady_appends_and_deletes_keep_every_plain_array():
    store = ColumnStore(PAIR)
    store.assign_vectors([ArrayVector(np.arange(10)),
                          ArrayVector(np.arange(10.0))])
    held = store.vectors()
    store.append((10, 10.0))
    store.extend([(11, 11.0), (12, 12.0)])
    # Appends are recorded, not copied in: one concatenation per read.
    assert store._vectors is held and len(store._pending) == 3
    store.delete_positions([0, 5, 12])
    kept = store.vectors()
    assert kept is not None
    assert all(a is not b for a, b in zip(kept, held))
    assert kept[0].data.tolist() == [1, 2, 3, 4, 6, 7, 8, 9, 10, 11]
    assert held[0].data.tolist() == list(range(10))
    for value in range(20, 30):
        store.append((value, float(value)))
    assert store.array(0).data.tolist()[-10:] == list(range(20, 30))
    # A value with no exact array of its column's dtype ends the vector
    # form: the rows carry on.
    store.append((2 ** 64, float("nan")))
    assert store.vectors() is None
    assert store.array(0) is None and store.array(1) is None
    assert store[-1][0] == 2 ** 64 and len(store) == 21
    # Deleting every row leaves an empty store: the zero-length vectors
    # of its schema's dtypes.
    store = ColumnStore(PAIR)
    store.assign_vectors([ArrayVector(np.array([1, 2])),
                          ArrayVector(np.array([0.5, 1.5]))])
    store.delete_positions([0, 1])
    assert len(store) == 0 and list(store) == []
    assert [(str(vector.data.dtype), len(vector.data))
            for vector in store.vectors()] == [("int64", 0), ("float64", 0)]


def test_snapshots_and_vector_batches_keep_their_old_values():
    table = Table("R", PAIR, storage="columnar")
    table.insert_many([(i, i / 2) for i in range(9)])
    snapshot = table.snapshot()
    old_rows = list(snapshot.rows)
    arrays = [table.rows.array(j).data for j in range(2)]
    copies = [a.copy() for a in arrays]
    table.insert_many([(20, 1.5), (21, -0.0)])
    table.delete_by_key([(3,), (20,)], ("a",))
    assert list(snapshot.rows) == old_rows
    assert all(np.array_equal(a, c) for a, c in zip(arrays, copies))
    # A vector form's batch: a mutation leaves the shared vectors alone.
    store = ColumnStore(PAIR)
    store.assign_vectors([ArrayVector(np.arange(5)),
                          ArrayVector(np.arange(5) / 4)])
    batch = ArrayColumns(store.vectors())
    store.append((9, 9.0))
    store.delete_positions([0])
    assert batch.array(0).data.tolist() == [0, 1, 2, 3, 4]
    assert batch.array(1).data.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert store.column(0) == [1, 2, 3, 4, 9]


@pytest.mark.parametrize("storage", ["rows", "columnar"])
def test_delete_positions_keeps_list_order(storage):
    store = make_storage(storage, PAIR)
    rows = [(i, -i) for i in range(11)]
    store.extend(list(rows))
    store.delete_positions([9, 0, 4, 10])
    assert list(store) == [row for i, row in enumerate(rows)
                           if i not in (0, 4, 9, 10)]


# -- the streaming write path -------------------------------------------------

def streaming_engine(seed=5, reference=False):
    engine = Engine("oracle", reference=reference)
    # E and ES load in the vector form: deletes keep their survivors.
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
    """Counts a columnar store's decodes into lists (``column`` and
    ``materialized``); records which statistics objects took the row
    path and which the vector path."""
    seen = {"decodes": 0, "rows": [], "vectors": []}
    for name in ("column", "materialized"):
        original = getattr(ColumnStore, name)

        def counting(self, *args, _original=original):
            seen["decodes"] += 1
            return _original(self, *args)

        monkeypatch.setattr(ColumnStore, name, counting)
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
    # The load leaves every table in the vector form: not even the first
    # cycles decode a vector.
    assert storage_spy["decodes"] == 0
    # The spy counts: one explicit decode is one.
    engine.database.table("E").rows.column(0)
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


def estimates_after_mixed_batches(reference):
    from repro.core.algorithms import bellman_ford, wcc

    engine, graph = streaming_engine(seed=8, reference=reference)
    rng = random.Random(11)
    for _ in range(3):
        run_cycle(engine, graph, rng)
    database = engine.database
    # The cost planner estimates over the row tables the reference
    # profile's batches left behind: Engine() attached to its catalog.
    engine = Engine("oracle", database=database)
    stats = {name: statistics_repr(database.table(name).statistics)
             for name in ("E", "ES")}
    estimates = [re.findall(r"est_rows=\d+", engine.explain_analyze(sql))
                 for sql in (wcc.sql(), bellman_ford.sql(0))]
    return stats, estimates


def test_view_estimates_do_not_depend_on_the_analyze_path():
    """The same batches leave the same statistics and WCC/SSSP estimates
    behind whether ANALYZE read vectors (``Engine()``'s columnar tables)
    or rows (the reference profile's row tables)."""
    columnar = estimates_after_mixed_batches(False)
    rows = estimates_after_mixed_batches(True)
    assert all(columnar[1]) and columnar == rows
