"""The primary key against a model, from every store form.

The same operations run on a keyed ``Table`` and on a model of it — its
rows in order, keys compared value by value, so ``-0.0`` equals ``0.0``
and a NaN equals no key — for a composite INTEGER, a DOUBLE and a TEXT
key, each starting from every store form it can take: row storage, the
columnar vector form (INTEGER and DOUBLE columns only, no NULL or NaN)
and the row overlay.  A
``ConstraintError`` is raised exactly when the model says, naming the
first offending key, and leaves the table as it was; a deleted key goes
in again.

Every NaN handed to the table is a new object: the positions-by-key dict
would match one NaN object by identity, which no key comparison means.
Contents compare by type and value, a zero's sign aside: a matched row
equal to its replacement (``0.0`` vs ``-0.0``) may keep either.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.relational.database import Database
from repro.relational.errors import ConstraintError
from repro.relational.relation import Relation
from repro.relational.schema import Column, Schema
from repro.relational.strategies import (UNION_BY_UPDATE_STRATEGIES,
                                         apply_union_by_update)
from repro.relational.types import SqlType

INT, DOUBLE, TEXT = SqlType.INTEGER, SqlType.DOUBLE, SqlType.TEXT

#: schema (key columns first, one value column last), key values, values
KINDS = {
    "composite INTEGER": (
        Schema((Column("a", INT), Column("b", INT), Column("v", DOUBLE)),
               ("a", "b")),
        st.tuples(st.integers(0, 2), st.integers(-1, 1)),
        st.sampled_from([0.5, -0.0, 2.0])),
    "DOUBLE": (
        Schema((Column("k", DOUBLE), Column("v", INT)), ("k",)),
        st.tuples(st.sampled_from([0.0, -0.0, 1.5, -2.0, math.nan])),
        st.integers(-2, 2)),
    "TEXT": (
        Schema((Column("k", TEXT), Column("v", DOUBLE)), ("k",)),
        st.tuples(st.sampled_from(["a", "b", "", "é"])),
        st.sampled_from([0.5, 1.0])),
}
FORMS = ("rows", "vectors", "overlay")
CASES = [(kind, form) for kind in KINDS for form in FORMS
         if form != "vectors" or kind != "TEXT"]


def fresh(values: tuple) -> tuple:
    """*values* with every NaN a new object."""
    return tuple(float("nan") if value != value else value
                 for value in values)


def same(a: tuple, b: tuple) -> bool:
    return all(x == y for x, y in zip(a, b))


def cell(value) -> tuple:
    if isinstance(value, float):
        return ("float", repr(value + 0.0))  # -0.0 + 0.0 is 0.0
    return (type(value).__name__, repr(value))


class Model:
    """The rows in order; a key is held when some row's key equals it."""

    def __init__(self, width: int, rows: list):
        self.width = width
        self.rows = list(rows)

    def key(self, row: tuple) -> tuple:
        return row[:self.width]

    def holds(self, key: tuple, rows: list) -> bool:
        return any(same(key, self.key(row)) for row in rows)

    def insert_many(self, rows: list) -> str | None:
        """The error ``insert_many`` must raise; else None, rows added."""
        batch = []
        for row in rows:
            key = self.key(row)
            if self.holds(key, self.rows) or self.holds(key, batch):
                return f"duplicate primary key {key!r} in table T"
            batch.append(row)
        self.rows += batch
        return None

    def delete(self, doomed) -> int:
        kept = [row for row in self.rows if not doomed(row)]
        removed = len(self.rows) - len(kept)
        self.rows = kept
        return removed

    def union_by_update(self, delta: list) -> None:
        """``rows ⊎ delta`` for a delta of distinct keys: a matched row
        is replaced in place, an unmatched one appended in delta order."""
        out = list(self.rows)
        for new in delta:
            hits = [i for i, row in enumerate(self.rows)
                    if same(self.key(row), self.key(new))]
            for i in hits:
                out[i] = new
            if not hits:
                out.append(new)
        self.rows = out


def form_of(table) -> str:
    store = table.rows
    if table.storage == "rows":
        return "rows"
    return "overlay" if store.vectors() is None else "vectors"


def contents(table) -> list:
    """The rows as comparable cells; a columnar store's caches are
    dropped after, so the next lookup reads the store's own form."""
    rows = [tuple(map(cell, row)) for row in table.rows]
    if table.storage == "columnar":
        table.rows.drop_caches()
    return rows


def make_table(kind: str, form: str, start: list) -> Database:
    schema = KINDS[kind][0]
    database = Database(storage="rows" if form == "rows" else "columnar")
    table = database.create_table("T", schema)
    start = list(map(fresh, start))
    if form == "overlay":
        table.replace_contents(Relation(schema, start))
    else:
        table.load(start)
    assert form_of(table) == form
    return database


def insert_attempt(table, model: Model, method: str, rows: list) -> None:
    """*rows* into the table by *method* (``insert`` takes the one row):
    refused exactly as the model refuses them, and then unchanged."""
    expected = model.insert_many(rows)
    before = contents(table)
    handed = list(map(fresh, rows))
    try:
        if method == "insert":
            table.insert(handed[0])
        else:
            getattr(table, method)(handed)
    except ConstraintError as error:
        assert str(error) == expected
        assert contents(table) == before
    else:
        assert expected is None


def apply(database: Database, model: Model, op: tuple) -> None:
    table = database.table("T")
    schema = table.schema
    name, *args = op
    if name == "insert":
        insert_attempt(table, model, name, [args[0]])
    elif name in ("insert_many", "load"):
        insert_attempt(table, model, name, args[0])
    elif name == "delete_by_key":
        keys = args[0]
        removed = table.delete_by_key(list(map(fresh, keys)),
                                      schema.primary_key)
        assert removed == model.delete(lambda row: any(
            same(model.key(row), key) for key in keys))
    elif name == "delete_where":
        value = args[0]
        doomed = (lambda row: row[-1] is None) if value is None \
            else (lambda row: row[-1] == value)
        assert table.delete_where(doomed) == model.delete(doomed)
    elif name == "truncate":
        table.truncate()
        model.rows = []
    elif name == "replace_contents":
        table.replace_contents(Relation(schema, list(map(fresh, args[0]))))
        model.rows = list(args[0])
    else:
        delta = Relation(schema, list(map(fresh, args[0])))
        apply_union_by_update(database, table, delta, schema.primary_key,
                              name)
        model.union_by_update(args[0])
    assert contents(database.table("T")) == \
        [tuple(map(cell, row)) for row in model.rows], op


@st.composite
def scenarios(draw, kind: str, form: str):
    schema, keys, values = KINDS[kind]
    width = len(schema.primary_key)
    nullable = st.one_of(values, st.none())
    row = st.builds(lambda key, value: key + (value,), keys, nullable)

    def rows(unique=False, min_size=0, max_size=4, row=row):
        return st.lists(row, min_size=min_size, max_size=max_size,
                        unique_by=(lambda r: r[:width]) if unique else None)

    # the vector form holds no NULL and no NaN
    start = draw(rows(
        unique=True, max_size=5, min_size=1 if form == "vectors" else 0,
        row=st.builds(lambda key, value: key + (value,),
                      keys.filter(lambda key: all(v == v for v in key)), values)
        if form == "vectors" else row))
    op = st.one_of(
        st.tuples(st.just("insert"), row),
        st.tuples(st.sampled_from(["insert_many", "load"]), rows()),
        st.tuples(st.just("delete_by_key"), st.lists(keys, max_size=3)),
        st.tuples(st.just("delete_where"), nullable),
        st.tuples(st.just("truncate")),
        st.tuples(st.just("replace_contents"), rows(unique=True)),
        st.tuples(st.sampled_from(UNION_BY_UPDATE_STRATEGIES),
                  rows(unique=True)),
    )
    return start, draw(st.lists(op, min_size=1, max_size=8))


@pytest.mark.parametrize("kind, form", CASES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_the_key_constraint_follows_the_model(kind, form, data):
    start, ops = data.draw(scenarios(kind, form))
    database = make_table(kind, form, start)
    model = Model(len(KINDS[kind][0].primary_key), start)
    for op in ops:
        apply(database, model, op)
    # A deleted key goes in again, once.
    for row in model.rows[:1]:
        apply(database, model, ("delete_by_key", [model.key(row)]))
        apply(database, model, ("insert_many", [row]))
        apply(database, model, ("insert", row))


#: rows of distinct keys, a signed zero among them
FIXED = {"composite INTEGER": [(0, 0, 0.5), (1, -1, -0.0), (2, 1, 2.0)],
         "DOUBLE": [(-0.0, 1), (1.5, None), (-2.0, 2)],
         "TEXT": [("", 0.5), ("é", None), ("a", 1.0)]}


@pytest.mark.parametrize("kind, form", CASES)
def test_a_deleted_key_is_insertable_again(kind, form):
    start = FIXED[kind]
    if form == "vectors":  # the vector form holds no NULL
        start = [row[:-1] + (0,) if row[-1] is None else row
                 for row in start]
    database = make_table(kind, form, start)
    model = Model(len(KINDS[kind][0].primary_key), start)
    for row in (start[0], start[-1]):
        apply(database, model, ("insert", row))  # refused: held
        apply(database, model, ("delete_by_key", [model.key(row)]))
        apply(database, model, ("insert_many", [row]))
        apply(database, model, ("load", [row]))  # refused again
