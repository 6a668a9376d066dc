"""Graphs load and derive as typed vectors.

Three paths build a graph's relations without row tuples on columnar
storage, each declining to the row path for what its vectors cannot
hold:

* ``Table.load`` — the bulk load behind ``Database.load_edge_table``,
  ``load_node_table`` and ``register`` — leaves the store in its vector
  form, the vectors ``insert_many`` of the same rows folds into (same
  contents, same ``size_bytes``);
* ``/`` in ``compile_array`` — the transition weights ``1.0 / D.c``;
* UNION on arrays (``BatchUnion``) — the symmetric edges ``E ∪ Eᵀ``.

Each is checked against the row path value for value, ``repr`` for
``repr`` (which tells ``1`` from ``1.0`` and ``0.0`` from ``-0.0``).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.algorithms import pagerank, wcc
from repro.core.algorithms.common import load_graph, prepare_transition
from repro.core.algorithms.wcc import prepare_symmetric_edges
from repro.datasets import preferential_attachment
from repro.graphsystems.graph import Graph
from repro.relational import Engine
from repro.relational.errors import ConstraintError, ExecutionError
from repro.relational.physical.blocks import ArrayColumns, exact_array
from repro.relational.relation import Relation
from repro.relational.schema import Column, Schema
from repro.relational.table import Table
from repro.relational.types import SqlType

from ..conftest import reference_engine, refused_keys

GRAPH_TABLES = ("E", "V", "W", "L", "S", "ES")


def columnar() -> Engine:
    return Engine("oracle")


def weighted_graph(seed: int) -> Graph:
    """A directed graph with > 2048 edges, random weights and labels —
    and one signed zero among its weights."""
    graph = preferential_attachment(1100, 4.0, directed=True, seed=seed)
    graph.randomize_node_weights(seed=seed + 1)
    graph.randomize_labels(5, seed=seed + 2)
    u, v = next(iter(graph.edges()))
    graph.add_edge(u, v, -0.0)
    return graph


def row_loaded(table: Table) -> Table:
    """The same table filled the row way: ``insert_many`` of its rows
    into a fresh table of its schema and key constraint, ANALYZEd as the
    loaders ANALYZE."""
    twin = Table(table.name, table.schema, enforce_key=table.enforce_key,
                 storage=table.storage)
    twin.insert_many(list(table.rows))
    if not table.temporary:
        twin.analyze()
    return twin


def probe_keys(table: Table, extra=()) -> list:
    """Keys to offer a following ``insert_many``: those of about 40 rows
    spread over *table*, each shifted past every stored key, and
    *extra*."""
    if not table.schema.primary_key:
        return list(extra)
    positions = table.schema.key_indexes()
    rows = list(table.rows)
    keys = [tuple(row[i] for i in positions)
            for row in rows[::max(1, len(rows) // 40)]]
    return keys + [(key[0] + 10 ** 9,) + key[1:] for key in keys] \
        + list(extra)


def state(table: Table) -> tuple:
    """What a load leaves, as comparable text."""
    return (repr(list(table.rows)), repr(table.schema), table.enforce_key,
            repr(sorted(table.statistics.columns.items())),
            table.statistics.row_count,
            repr(refused_keys(table, probe_keys(table))))


def stored(table: Table) -> tuple:
    """What the store holds, as comparable text, and its bytes."""
    store = table.rows
    return repr(list(store)), store.size_bytes()


def assert_vector_form(store) -> None:
    """Built from vectors: no row list held."""
    assert store._rows is None and store.vectors() is not None


@pytest.mark.parametrize("seed", (3, 8))
def test_a_vector_load_equals_a_row_load(seed):
    graph = weighted_graph(seed)
    engine = columnar()
    load_graph(engine, graph)
    prepare_transition(engine)
    prepare_symmetric_edges(engine)
    reference = reference_engine()
    load_graph(reference, graph)
    prepare_transition(reference)
    prepare_symmetric_edges(reference)
    for name in GRAPH_TABLES:
        table = engine.database.table(name)
        store = table.rows
        assert_vector_form(store)
        twin = row_loaded(table)
        assert twin.rows.vectors() is not None  # insert_many folds too
        assert state(table) == state(twin), name
        assert repr(list(store)) == repr(
            list(reference.database.table(name).rows)), name
        assert stored(table) == stored(twin), name


def test_a_loaded_table_reads_its_arrays_and_streams_them_on():
    engine = columnar()
    load_graph(engine, weighted_graph(5))
    table = engine.database.table("E")
    store = table.rows
    held = store.vectors()
    assert tuple(store.array(j) for j in range(3)) == held
    assert repr(store.column(2)) == repr(held[2].tolist())
    doomed = (held[0].data[5].item(), held[1].data[5].item())
    # a keyed delete gathers the removed rows from the arrays
    table.delete_by_key([doomed], ("F", "T"))
    assert refused_keys(table, [doomed]) == [] and store._rows is None
    table.insert_many([(10 ** 6, 10 ** 6 + 1, 2.5)])
    assert store.vectors() is not None
    keys = probe_keys(table, [doomed, (10 ** 6, 10 ** 6 + 1)])
    assert refused_keys(table, keys) == keys[:len(keys) // 2 - 1] + keys[-1:]
    twin = row_loaded(table)
    assert repr(list(store)) == repr(list(twin.rows))
    assert refused_keys(table, keys) == refused_keys(twin, keys)


def test_an_ending_vector_overlay_carries_its_arrays():
    """The vector form takes inserts (pending until a read) and keyed
    deletes as new vectors; a value its dtype cannot hold ends it, and
    the rows carry on."""
    schema = Schema((Column("a", SqlType.INTEGER),
                     Column("b", SqlType.DOUBLE)))
    table = Table("T", schema, enforce_key=False, storage="columnar")
    table.insert_relation(Relation.from_batch(schema, ArrayColumns(
        [exact_array([1, 2, 3]), exact_array([0.5, -0.0, 2.0])])))
    store = table.rows
    before = store.vectors()
    assert before is not None  # the vector form
    table.insert_many([(4, 1.5)])
    assert store._vectors is before and store._pending == [(4, 1.5)]
    assert repr(list(store)) == "[(1, 0.5), (2, -0.0), (3, 2.0), (4, 1.5)]"
    table.delete_by_key([(2,)], ("a",))
    assert [vector.tolist() for vector in store.vectors()] == \
        [[1, 3, 4], [0.5, 2.0, 1.5]]
    assert repr([vector.tolist() for vector in before]) == \
        "[[1, 2, 3], [0.5, -0.0, 2.0]]"
    table.insert_many([(5, None)])  # NULL: no float64 array holds it
    assert store.vectors() is None
    assert repr(list(store)) == "[(1, 0.5), (3, 2.0), (4, 1.5), (5, None)]"
    assert store.array(0).tolist() == [1, 3, 4, 5] and store.array(1) is None


# -- declines ------------------------------------------------------------------

PAIR = Schema((Column("ID", SqlType.INTEGER), Column("v", SqlType.DOUBLE)),
              ("ID",))

#: Rows the vectors cannot hold, and why.
DECLINES = {
    "null": [(1, 0.5), (2, None)],
    "bool": [(1, 0.5), (2, True)],
    "text": [(1, 0.5), (2, "2.5")],
    "nan": [(1, 0.5), (2, math.nan)],
    "int beside a float": [(1, 0.5), (2, 3)],
    "int outside int64": [(1, 0.5), (2 ** 64, 1.5)],
}


@pytest.mark.parametrize("why", sorted(DECLINES))
def test_a_decline_loads_through_the_row_path(why):
    rows = DECLINES[why]
    loaded = Table("T", PAIR, storage="columnar")
    assert loaded._load_vectors(rows) is None
    loaded.load(rows)
    twin = Table("T", PAIR, storage="columnar")
    twin.insert_many(rows)
    assert stored(loaded) == stored(twin)
    keys = [row[:1] for row in rows] + [(3,)]
    assert refused_keys(loaded, keys) == refused_keys(twin, keys) \
        == keys[:-1]


# -- the first insert into an empty table ---------------------------------------

NUMBERS = Schema((Column("a", SqlType.INTEGER), Column("b", SqlType.DOUBLE)))
WORDS = Schema((Column("a", SqlType.INTEGER), Column("b", SqlType.TEXT)))

#: A first ``insert_many`` into an empty table: schema, rows, and whether
#: the columnar store holds them in its vector form.
FIRST_INSERTS = {
    "ints and doubles": (NUMBERS, [(1, 0.5), (2, -0.0), (3, 2.0)], True),
    "ints widened to doubles": (NUMBERS, [(1, 1), (2, 2)], True),
    "one row": (NUMBERS, [(7, 1e18)], True),
    "null": (NUMBERS, [(1, 0.5), (2, None)], False),
    "nan": (NUMBERS, [(1, math.nan)], False),
    "int outside int64": (NUMBERS, [(2 ** 64, 0.5)], False),
    "text column": (WORDS, [(1, "x"), (2, "y")], False),
}


@pytest.mark.parametrize("why", sorted(FIRST_INSERTS))
def test_a_first_insert_is_held_as_vectors_where_they_hold_it(why):
    """An empty columnar table starts in the vector form when every
    column is INTEGER or DOUBLE; its first ``insert_many`` stays there
    unless a value needs the row overlay.  Either way the contents equal
    the same inserts on row storage."""
    schema, rows, on_vectors = FIRST_INSERTS[why]
    table = Table("T", schema, enforce_key=False, storage="columnar")
    assert (table.rows.vectors() is not None) == (schema is NUMBERS)
    twin = Table("T", schema, enforce_key=False, storage="rows")
    for _ in range(2):  # the first insert, then one onto it
        table.insert_many(rows)
        twin.insert_many(rows)
        assert (table.rows.vectors() is not None) == on_vectors
        assert repr(list(table.rows)) == repr(list(twin.rows))


@pytest.mark.parametrize("statement", ["wcc", "pagerank"])
def test_the_iterations_table_is_held_as_vectors(statement):
    """``Engine()`` publishes a with+ statement's trajectory by
    ``insert_many`` into a fresh ``__iterations__``: held as vectors."""
    graph = preferential_attachment(40, 3.0, directed=True, seed=4)
    engine, reference = Engine("oracle"), reference_engine()
    for each in (engine, reference):
        load_graph(each, graph)
        prepare_transition(each)
        prepare_symmetric_edges(each)
    sql = {"wcc": wcc.sql(),
           "pagerank": pagerank.sql(graph.num_nodes)}[statement]
    result = engine.execute_detailed(sql)
    table = engine.database.table("__iterations__")
    assert table.storage == "columnar"
    assert table.rows.vectors() is not None
    assert len(table) == result.iterations > 1
    reference.execute(sql)
    trajectory = "select iteration, total_rows from __iterations__"
    assert engine.execute(trajectory).rows == \
        reference.execute(trajectory).rows


def test_a_repeated_key_raises_the_row_paths_error():
    rows = [(1, 0.5), (2, 1.5), (1, 2.5)]
    with pytest.raises(ConstraintError) as row_error:
        Table("T", PAIR, storage="columnar").insert_many(rows)
    table = Table("T", PAIR, storage="columnar")
    with pytest.raises(ConstraintError) as load_error:
        table.load(rows)
    assert str(load_error.value) == str(row_error.value)
    assert len(table) == 0
    with pytest.raises(ConstraintError) as edge_error:
        columnar().database.load_edge_table("E", [(1, 2), (1, 2, 3.0)])
    assert "duplicate primary key (1, 2)" in str(edge_error.value)


def test_row_storage_and_wrong_arity_take_the_row_path():
    table = Table("T", PAIR, storage="rows")
    assert table.load([(1, 0.5)]) == 1 and list(table.rows) == [(1, 0.5)]
    rows = [(1, 0.5), (2,)]
    with pytest.raises(Exception) as row_error:
        Table("V", PAIR, storage="columnar").insert_many(rows)
    with pytest.raises(type(row_error.value)) as load_error:
        columnar().database.load_node_table("V", rows)
    assert str(load_error.value) == str(row_error.value)


values = st.one_of(st.integers(-3, 3), st.integers(-2 ** 63, 2 ** 63 - 1),
                   st.floats(allow_nan=False), st.sampled_from([0.0, -0.0]))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(-5, 5), values), min_size=1,
                max_size=12))
def test_hypothesis_load_equals_insert_many(rows):
    keyed = {}
    for key, value in rows:
        keyed.setdefault(key, value)
    rows = list(keyed.items())
    loaded = Table("T", PAIR, storage="columnar")
    on_vectors = loaded._load_vectors(rows) is not None
    loaded.load(rows)
    loaded.analyze()
    if on_vectors:
        assert_vector_form(loaded.rows)
    twin = Table("T", PAIR, storage="columnar")
    twin.insert_many(rows)
    twin.analyze()
    assert state(loaded) == state(twin)
    assert stored(loaded) == stored(twin)


# -- UNION on arrays -------------------------------------------------------------

XY = Schema((Column("x", SqlType.INTEGER), Column("y", SqlType.DOUBLE)))

cells = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 1, 2, None]),
                  st.builds(float, st.just("nan")))


def union_rows(engine: Engine, left, right, sql: str) -> str:
    for name, rows in (("A", left), ("B", right)):
        engine.database.register(name, Relation(XY, rows))
    return repr(engine.execute(sql).rows)


UNIONS = (
    "(select x, y from A) union (select x, y from B)",
    "(select y, x from A) union (select y, x from B)",
    # ints beside floats in one position: y beside x
    "(select x, y from A) union (select y, x from B)",
    "(select y from A) union (select y from B)",
    # filtered branches: one or both sides empty after the filter
    "(select x, y from A where x > 100) union (select x, y from B where x > 100)",
    "(select x, y from A where x > 1) union (select x, y from B where x > 100)",
    "(select x, y from A where x > 100) union (select y, x from B where x < 2)",
    # a parent operator resolving the union's vectors
    "select count(*) from ((select x, y from A where x > 100)"
    " union (select x, y from B where x > 100)) u",
    "select count(*) from ((select x, y from A) union (select x, y from B)) u",
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), cells), max_size=8),
       st.lists(st.tuples(st.integers(0, 3), cells), max_size=8))
def test_union_on_arrays_equals_the_reference(left, right):
    for sql in UNIONS:
        assert union_rows(columnar(), left, right, sql) == \
            union_rows(reference_engine(), left, right, sql), sql


def test_union_keeps_the_first_zero_and_answers_on_arrays():
    for first, second in ((0.0, -0.0), (-0.0, 0.0)):
        engine = columnar()
        engine.database.register("A", Relation(XY, [(1, first), (2, 1.0)]))
        engine.database.register("B", Relation(XY, [(1, second), (2, 1.0),
                                                    (3, second)]))
        result = engine.execute(UNIONS[0])
        assert isinstance(result.batch, ArrayColumns)
        assert repr(result.rows) == repr(((1, first), (2, 1.0), (3, second)))


def test_an_empty_union_answers_on_arrays():
    engine = columnar()
    engine.database.register("A", Relation(XY, [(1, 1.0), (2, 0.0)]))
    engine.database.register("B", Relation(XY, [(3, -0.0)]))
    result = engine.execute(UNIONS[4])
    assert isinstance(result.batch, ArrayColumns)
    assert result.rows == ()
    assert engine.execute(UNIONS[7]).rows == ((0,),)


# -- / on arrays ---------------------------------------------------------------

ABC = Schema((Column("a", SqlType.INTEGER), Column("b", SqlType.DOUBLE),
              Column("c", SqlType.INTEGER)))

DIVISIONS = ("a / b", "b / a", "b / b", "a / 2.0", "1.0 / a", "b / 3",
             "a / c", "6 / a", "(a * 2.0) / (b + 1.0)")

ints = st.integers(-6, 6)
floats = st.one_of(st.floats(allow_nan=False, width=64),
                   st.sampled_from([0.0, -0.0, 1e308, 5e-324]))


def quotients(engine: Engine, rows, expr: str):
    engine.database.register("T", Relation(ABC, rows))
    try:
        result = engine.execute(f"select {expr} as q from T")
    except ExecutionError as error:
        return "error", str(error), None
    return "rows", repr(result.rows), result.batch


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(ints, floats, ints), min_size=1, max_size=8))
def test_division_on_arrays_equals_the_reference(rows):
    for expr in DIVISIONS:
        got = quotients(columnar(), rows, expr)
        assert got[:2] == quotients(reference_engine(), rows, expr)[:2], expr


def test_division_answers_on_arrays_unless_the_row_path_must():
    rows = [(1, 2.0, 3), (4, 0.5, 2), (-3, 8.0, 1)]
    for expr in ("a / b", "1.0 / a", "b / c", "a / 2.0"):
        outcome, _, batch = quotients(columnar(), rows, expr)
        assert outcome == "rows" and isinstance(batch, ArrayColumns), expr
    # int / int: an exact quotient is an int
    outcome, text, batch = quotients(columnar(), rows, "a / c")
    assert text == repr(((0.3333333333333333,), (2,), (-3,)))
    assert not isinstance(batch, ArrayColumns)
    # a zero divisor of either sign raises the row path's error
    for zero in (0.0, -0.0):
        got = quotients(columnar(), rows + [(1, zero, 1)], "a / b")
        assert got[:2] == ("error", "division by zero")
