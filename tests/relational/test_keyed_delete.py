"""Keyed deletes on typed vectors.

``Table.delete_by_key`` on columnar storage finds the coerced probes
through the store's key index (``Table._indexed_positions``); the
positions-by-key dict is the fallback and, on row storage, the oracle.
Both must leave the same removed count, contents and row order (value
identity included: ``1`` vs ``1.0``, ``0.0`` vs ``-0.0``), refused keys
and index contents.  A spy on ``positions_by_key`` shows which path ran:
one named case per decline rule.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.relational.physical.blocks import ArrayVector
from repro.relational.schema import Column, Schema
from repro.relational.table import Table
from repro.relational.types import SqlType

from ..conftest import refused_keys

INT, DOUBLE = SqlType.INTEGER, SqlType.DOUBLE

#: ID, a, b — the delete keys below are subsets of these
SCHEMA = Schema((Column("ID", INT), Column("a", DOUBLE), Column("b", INT)))
KEYED = Schema(SCHEMA.columns, ("ID",))


@pytest.fixture
def dict_lookups(monkeypatch):
    """Records every ``positions_by_key`` call (the dict path)."""
    calls = []
    original = Table.positions_by_key

    def recording(self, target_positions):
        calls.append(tuple(target_positions))
        return original(self, target_positions)

    monkeypatch.setattr(Table, "positions_by_key", recording)
    return calls


def identity(rows):
    """Rows as values that tell ``1`` from ``1.0`` and ``0.0`` from
    ``-0.0``."""
    def cell(value):
        if isinstance(value, float):
            return ("float", value, math.copysign(1.0, value))
        return (type(value).__name__, value)
    return [tuple(map(cell, row)) for row in rows]


def make_table(storage, schema, rows, enforce_key=False):
    table = Table("R", schema, enforce_key=enforce_key, storage=storage)
    table.insert_many(rows)
    table.create_index("ix", ["b"], "btree")
    return table


def delete_outcome(storage, schema, rows, deletes, enforce_key=False):
    """Counts, contents, the keys a following ``insert_many`` refuses
    (of every row's and probe's ``ID``) and index after each ``(probes,
    key_columns)`` delete in turn."""
    table = make_table(storage, schema, rows, enforce_key)
    candidates = [(row[0],) for row in rows] + [
        (probe if isinstance(probe, tuple) else (probe,))[:1]
        for probes, _ in deletes for probe in probes]
    trail = []
    for probes, key_columns in deletes:
        removed = table.delete_by_key(probes, key_columns)
        trail.append((removed, identity(table.rows),
                      refused_keys(table, candidates),
                      identity(table.indexes["ix"].ordered_rows())))
    return trail


def assert_same_as_rows(schema, rows, deletes, enforce_key=False):
    expected = delete_outcome("rows", schema, rows, deletes, enforce_key)
    got = delete_outcome("columnar", schema, rows, deletes, enforce_key)
    assert got == expected
    return got


# -- property: the array path against the dict path ---------------------------

ids = st.integers(-3, 3)
floats = st.sampled_from([0.0, -0.0, 1.5, -2.0, float("inf")])
table_rows = st.lists(st.tuples(ids, floats, st.integers(0, 3)), max_size=10)
#: ints far outside int64 equal no stored value
wild_ints = st.sampled_from([2 ** 64, -2 ** 70, 2 ** 63])
KEY_LAYOUTS = (("ID",), ("ID", "a"), ("ID", "b"), ("ID", "b", "a"), ("b",))


@st.composite
def deletions(draw):
    rows = draw(table_rows)
    # Duplicate rows on purpose: every copy of a matched key goes.
    rows += draw(st.lists(st.sampled_from(rows), max_size=3)) if rows else []
    deletes = []
    for _ in range(draw(st.integers(1, 2))):
        key_columns = draw(st.sampled_from(KEY_LAYOUTS))
        positions = [SCHEMA.index_of(c) for c in key_columns]
        present = [tuple(row[p] for p in positions) for row in rows]
        probe_value = {"ID": st.one_of(ids, wild_ints), "a": floats,
                       "b": st.one_of(st.integers(0, 5), wild_ints)}
        missing = st.tuples(*(probe_value[c] for c in key_columns))
        probes = draw(st.lists(
            st.sampled_from(present) if present else missing,
            max_size=4))
        probes += draw(st.lists(missing, max_size=3))
        deletes.append((probes, key_columns))
    return rows, deletes


@given(case=deletions())
@settings(max_examples=300, deadline=None)
def test_array_delete_matches_the_dict_path(case):
    rows, deletes = case
    assert_same_as_rows(SCHEMA, rows, deletes)


@given(rows=st.lists(st.tuples(ids, floats, st.integers(0, 3)),
                     unique_by=lambda row: row[0], max_size=7),
       probes=st.lists(st.one_of(ids, wild_ints), max_size=5))
@settings(max_examples=150, deadline=None)
def test_key_set_is_maintained_like_the_dict_path(rows, probes):
    assert_same_as_rows(KEYED, rows, [(probes, ("ID",))], enforce_key=True)


# -- which path ran -----------------------------------------------------------

BASE = [(0, 0.0, 1), (1, -0.0, 2), (2, 1.5, 1), (1, 2.5, 3), (5, 0.0, 0)]


@pytest.mark.parametrize("probes, key_columns", [
    ([(1,), (5,), (9,)], ("ID",)),
    ([(1, 0.0), (2, 1.5), (2 ** 64, 1.5)], ("ID", "a")),
    ([(1, -0.0, 2), (5, -0.0, 0)], ("ID", "a", "b")),
    ([(0.0,), (1.5,)], ("a",)),
])
def test_the_array_path_never_builds_the_dict(dict_lookups, probes,
                                              key_columns):
    got = assert_same_as_rows(SCHEMA, BASE, [(probes, key_columns)])
    assert got[0][0] > 0
    # the row-storage oracle built its dict; the columnar table did not
    assert dict_lookups == [tuple(SCHEMA.index_of(c) for c in key_columns)]


TEXT_SCHEMA = Schema((Column("ID", INT), Column("a", SqlType.TEXT),
                      Column("b", INT)))
BOOL_SCHEMA = Schema((Column("ID", SqlType.BOOLEAN), Column("a", DOUBLE),
                      Column("b", INT)))

DECLINES = {
    "TEXT key column": (TEXT_SCHEMA, [(0, "x", 1), (1, "y", 2)],
                        [(0, "x")], ("ID", "a")),
    "BOOLEAN key column": (BOOL_SCHEMA, [(True, 0.0, 1), (False, 1.0, 2)],
                           [(True,)], ("ID",)),
    "NULL in a key column": (SCHEMA, [(0, 0.0, 1), (None, 1.0, 2)],
                             [(0,)], ("ID",)),
    "NaN in a key column": (SCHEMA, [(0, float("nan"), 1), (1, 1.0, 2)],
                            [(1, 1.0)], ("ID", "a")),
    "NULL probe": (SCHEMA, BASE, [(None,), (1,)], ("ID",)),
    "int spans too wide to pack": (
        SCHEMA, [(-2 ** 62, 0.0, 0), (2 ** 62, 0.0, 2 ** 40)],
        [(2 ** 62, 2 ** 40)], ("ID", "b")),
    "empty table": (SCHEMA, [], [(1,)], ("ID",)),
}


@pytest.mark.parametrize("case", sorted(DECLINES))
def test_outside_the_envelope_takes_the_dict_path(dict_lookups, case):
    schema, rows, probes, key_columns = DECLINES[case]
    assert_same_as_rows(schema, rows, [(probes, key_columns)])
    assert len(dict_lookups) == 2  # the oracle and the columnar table


def test_a_column_mixing_ints_and_floats_declines(dict_lookups):
    # Stored columns are coerced to one type, so the mix only reaches the
    # lookup through a flagged vector handed to the store itself.
    table = Table("R", Schema((Column("a", DOUBLE),)), storage="columnar")
    table.rows.assign_vectors([ArrayVector(np.array([1.0, 2.0]),
                                           np.array([True, False]))])
    assert table.positions_of([(1,)], (0,)) == [0]
    assert dict_lookups == [(0,)]
    table.rows.assign_vectors([ArrayVector(np.array([1.0, 2.0]))])
    assert table.positions_of([(2.0,)], (0,)) == [1]
    assert dict_lookups == [(0,)]


def test_row_storage_takes_the_dict_path(dict_lookups):
    table = make_table("rows", SCHEMA, BASE)
    assert table.delete_by_key([(1,)], ("ID",)) == 2
    assert len(dict_lookups) == 1
