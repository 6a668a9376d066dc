"""A columnar table's key index across mutations.

In the vector form the store's cached ``"csr"`` / ``"sorted"`` index is
the table's one key map: appends patch it (unless a key falls outside its
range or packing), deletes filter and renumber it, and a rewrite that
keeps the key vectors keeps it.  Whatever survives must answer as an
index built from scratch over the new contents, and ``positions_of`` on
it must find what the positions-by-key dict finds.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.relational.physical.blocks import (ArrayVector, CsrIndex,
                                              RowsColumns, csr_index,
                                              pack_keys, sorted_index)
from repro.relational.relation import Relation
from repro.relational.schema import Column, Schema
from repro.relational.table import Table
from repro.relational.types import SqlType

SCHEMA = Schema((Column("F", SqlType.INTEGER), Column("T", SqlType.INTEGER),
                 Column("w", SqlType.DOUBLE)))
#: (kind, key columns) of the indexes kept warm
WARM = (("csr", (0,)), ("csr", (1,)), ("sorted", (0, 1)))
GRID = np.arange(-6, 22)


def rows_of(keys):
    return st.lists(st.tuples(keys, keys, st.sampled_from([0.5, 1.0, 2.0])),
                    min_size=1, max_size=6)


inside = st.integers(0, 9)
operations = st.lists(st.one_of(
    st.tuples(st.just("insert"), rows_of(inside)),
    st.tuples(st.just("insert"), rows_of(st.integers(-5, 20))),
    st.tuples(st.just("append vectors"), rows_of(inside)),
    st.tuples(st.just("append vectors"), rows_of(st.integers(-5, 20))),
    st.tuples(st.just("delete"), st.lists(st.tuples(inside), min_size=1,
                                          max_size=3)),
    st.tuples(st.just("rewrite values"), st.just(None)),
    st.tuples(st.just("rewrite a key"), st.just(None))), max_size=8)


def answers(index, columns):
    """Each grid key's build positions, in order, as *index* finds them."""
    grid = [ArrayVector(a.ravel()) for a in np.meshgrid(
        *([GRID] * len(columns)), indexing="ij")]
    keys = grid[0].data if isinstance(index, CsrIndex) \
        else pack_keys(grid, index.packing)[0]
    probe_idx, build_pos = index.probe(keys)
    return list(zip(probe_idx.tolist(), build_pos.tolist()))


def fresh(kind, columns, store):
    vectors = [store.array(j) for j in columns]
    return csr_index(vectors[0]) if kind == "csr" else sorted_index(vectors)


def covers(index, rows, columns) -> bool:
    ranges = [(index.base, index.top)] if isinstance(index, CsrIndex) \
        else [(base, base + span - 1) for base, span in index.packing]
    return all(low <= row[j] <= high
               for row in rows for j, (low, high) in zip(columns, ranges))


def dict_positions(table, probes, columns):
    mapping = table.positions_by_key(columns)
    return sorted({pos for probe in probes for pos in mapping.get(probe, ())})


@given(start=rows_of(inside), ops=operations,
       probes=st.lists(st.tuples(st.integers(-2, 11), st.integers(-2, 11),
                                 st.sampled_from([0.5, 1.0, 3.0])),
                       min_size=1, max_size=5))
@settings(max_examples=150, deadline=None)
def test_a_kept_index_answers_as_a_fresh_build(start, ops, probes):
    table = Table("E", SCHEMA, enforce_key=False, storage="columnar")
    table.load(start + [(0, 0, 1.0), (9, 9, 1.0)])
    store = table.rows
    for op, arg in ops:
        warm = {(kind, columns): store.join_index(columns, kind)[0]
                for kind, columns in WARM}
        before = store.vectors() is not None
        version = store.version
        if op == "insert":
            table.insert_many(arg)
        elif op == "append vectors":
            table.insert_relation(Relation.from_batch(
                SCHEMA, RowsColumns(arg, 3)))
        elif op == "delete":
            table.delete_by_key(arg, ("F",))
        elif len(table):
            f, t, w = store.vectors() or map(store.array, range(3))
            if op == "rewrite a key":
                t = ArrayVector(t.data.copy())
            table.assign_vectors([f, t, ArrayVector(w.data * 2)])
        vector_form = before and store.vectors() is not None
        for (kind, columns), index in warm.items():
            kept = store._index_cache.get((kind, columns))
            if not len(table) or index is None or not vector_form:
                continue
            expected_kept = (
                op == "delete"
                or op == "rewrite values"
                or (op == "rewrite a key" and columns == (0,))
                or (op in ("insert", "append vectors")
                    and covers(index, arg, columns)))
            assert (kept is not None) == expected_kept, (op, kind, columns)
            if kept is not None:
                # a patched index is a new object: kept plans hold the old
                assert (kept[0] is index) == (op.startswith("rewrite")
                                              or store.version == version)
                assert answers(kept[0], columns) \
                    == answers(fresh(kind, columns, store), columns)
        for columns in ((0,), (0, 1), (0, 1, 2), (2,)):
            wanted = [probe[:len(columns)] if columns != (2,)
                      else probe[2:] for probe in probes]
            assert table.positions_of(wanted, columns) \
                == dict_positions(table, wanted, columns)
