"""Columnar storage: value round-trips and the store surface.

The store's one contract is that its contents read back as *identity* —
same values, same Python types, NULLs and NaN objects included —
whichever of its two forms holds them: typed int64/float64 vectors, or
the row overlay for what those cannot hold exactly.  The property tests
here drive that contract over seeded random columns (NULL-heavy, empty,
single-value, high-cardinality), and the store tests walk the fold
boundaries (appends in chunks of 1, 4 and 16 rows with reads between)
plus the mutation paths that end the vector form.
"""

import random
import struct

import numpy as np
import pytest

from repro.relational.columnar import ColumnStore, RowStore, make_storage
from repro.relational.expressions import col
from repro.relational.physical import (
    BatchHashAggregate,
    HashAggregate,
    RelationScan,
)
from repro.relational.physical.blocks import (
    RowsColumns,
    array_grouped,
    exact_array,
)
from repro.relational.relation import AggregateSpec, Relation, _finish_aggregate
from repro.relational.schema import Column, Schema
from repro.relational.types import SqlType, infer_type


def store_of(values, sql_type=None):
    """A one-column store of *values*' column type (else the type of the
    first non-NULL value, DOUBLE for none), filled by ``extend``."""
    if sql_type is None:
        sql_type = next((infer_type(v) for v in values if v is not None),
                        SqlType.DOUBLE)
    store = ColumnStore(Schema((Column("c", sql_type),)))
    store.extend([(value,) for value in values])
    return store


def assert_identity(values, sql_type=None):
    """Stored and read back, the values are equal and of the exact same
    types, as a column and as rows."""
    store = store_of(values, sql_type)
    assert len(store) == len(values)
    decoded = store.column(0)
    assert decoded == list(values)
    assert [type(v) for v in decoded] == [type(v) for v in values]
    assert [row[0] for row in store] == list(values)
    assert store.size_bytes() >= 0
    return store


# -- round-trips --------------------------------------------------------------


def test_empty_column():
    store = assert_identity([], SqlType.INTEGER)
    assert store.vectors()[0].data.dtype == np.int64


def test_single_value_columns():
    for value in (0, -1, 7.5, "x", None, True, False, 1 << 70):
        assert_identity([value])


def test_wide_ints_use_int64():
    values = [(i * 2654435761) % (1 << 62) - (1 << 61) for i in range(300)]
    store = assert_identity(values)
    assert store.vectors()[0].data.dtype == np.int64


def test_huge_ints_fall_back_to_plain():
    """Ints past int64 are held as plain Python values: the row overlay."""
    values = [(1 << 70) + i for i in range(100)]
    store = assert_identity(values)
    assert store.vectors() is None


def test_floats_use_float64():
    rng = random.Random(5)
    values = [rng.random() * 1e6 - 5e5 for _ in range(400)]
    store = assert_identity(values)
    assert store.vectors()[0].data.dtype == np.float64


def test_nan_keeps_original_object():
    nan = float("nan")
    values = [nan, 1.0, nan] * 100
    decoded = store_of(values).column(0)
    # NaN != NaN, so identity has to hold at the object level: the store
    # must hand back the very same NaN it was given.
    assert decoded[0] is nan and decoded[2] is nan
    assert decoded[1] == 1.0


def test_high_cardinality_text_uses_plain():
    """TEXT columns are held as plain Python values: the row overlay."""
    values = [f"value-{i}" for i in range(500)]
    store = assert_identity(values)
    assert store.vectors() is None


def test_mixed_types_round_trip_exactly():
    # 1, 1.0 and True are ==-equal and hash-equal; the store must keep
    # them distinct so read values have the exact original types.
    values = [1, 1.0, True, 1, 1.0, True] * 80
    for sql_type in SqlType:
        assert_identity(values, sql_type)
    rng = random.Random(8)
    soup = [rng.choice([0, 0.0, False, "0", None]) for _ in range(400)]
    assert_identity(soup)


# -- bit-exact fidelity -------------------------------------------------------

#: column shapes: runs, narrow and wide ints, floats, text, NULLs, NaN
COLUMN_SHAPES = {
    "runs": [7] * 40 + [8] * 24,
    "runs_nulls": [None] * 30 + ["x"] * 34,
    "narrow": list(range(1000, 1064)),
    "narrow_nulls": [None if i % 7 == 0 else 1000 + i for i in range(64)],
    "strided": list(range(0, 640, 10)),
    "int64": [(-1) ** i * i * 10**14 for i in range(64)],
    "int64_nulls": [None if i % 5 == 0 else (-1) ** i * i * 10**14
                    for i in range(64)],
    "float64": [i * 0.1 for i in range(64)],
    "float64_nulls": [None if i % 3 == 0 else i * 0.1
                      for i in range(64)],
    "negative_zeros": [-0.0] * 32 + [0.0] + [-0.0] * 31,
    "low_cardinality": [f"tag-{i % 5}" for i in range(64)],
    "mixed": [float("nan") if i % 3 == 0 else f"mix-{i}"
              for i in range(64)],
}


def _bits(value):
    """A bit-exact fingerprint: floats by IEEE bits, the rest by repr and
    type (1 vs 1.0 vs True and -0.0 vs 0.0 must not collapse)."""
    if isinstance(value, float):
        return ("f", struct.pack("<d", value))
    return (type(value).__name__, repr(value))


def test_every_column_shape_roundtrips_bit_for_bit():
    stores = {name: store_of(values)
              for name, values in COLUMN_SHAPES.items()}
    # the shapes reach both forms
    assert {store.vectors() is None for store in stores.values()} == \
        {True, False}
    for name, values in COLUMN_SHAPES.items():
        assert [_bits(v) for v in stores[name].column(0)] == \
            [_bits(v) for v in values]


def test_roundtrip_preserves_bool_int_and_negative_zero():
    # -0.0 and 0.0 keep their signs in a float64 vector and in the row
    # overlay, and every value reads back bit for bit.
    tricky = [True, False, 1, 0, -0.0, 0.0, 1.0, None]
    assert [_bits(v) for v in store_of(tricky).column(0)] == \
        [_bits(v) for v in tricky]


def test_encode_column_constant_negative_zero_keeps_sign():
    # An all -0.0 column is held as a float64 vector with every sign kept;
    # an almost-constant one (one +0.0 in the middle) keeps its one +0.0.
    constant = store_of([-0.0] * 64)
    assert constant.vectors() is not None
    assert [_bits(v) for v in constant.column(0)] == [_bits(-0.0)] * 64
    mixed = [-0.0] * 32 + [0.0] + [-0.0] * 31
    assert [_bits(v) for v in store_of(mixed).column(0)] == \
        [_bits(v) for v in mixed]


def test_null_heavy_columns_round_trip():
    rng = random.Random(10)
    pools = {
        "int": lambda: rng.randrange(-1000, 1000),
        "float": lambda: rng.random(),
        "text": lambda: rng.choice("abcdef"),
    }
    for name, draw in pools.items():
        for null_rate in (0.05, 0.5, 0.95, 1.0):
            values = [None if rng.random() < null_rate else draw()
                      for _ in range(300)]
            assert_identity(values)


# -- seeded property sweep ----------------------------------------------------


@pytest.mark.parametrize("seed", range(20))
def test_random_columns_round_trip(seed):
    rng = random.Random(seed)
    draws = [
        lambda: rng.randrange(-50, 50),                # narrow ints
        lambda: rng.randrange(-(1 << 62), 1 << 62),    # wide ints
        lambda: rng.random() * 1e9,                    # floats
        lambda: rng.choice(["a", "b", "c", "d"]),      # low-card text
        lambda: f"u{rng.randrange(1 << 30)}",          # high-card text
        lambda: rng.choice([True, False]),             # booleans
        lambda: None,                                  # NULLs
    ]
    for _ in range(10):
        chosen = rng.sample(draws, rng.randrange(1, 4))
        length = rng.choice([0, 1, 2, 17, 100, 257])
        values = [rng.choice(chosen)() for _ in range(length)]
        if rng.random() < 0.5:
            values.sort(key=lambda v: (v is None, str(type(v)), str(v)))
        assert_identity(values)


# -- the store ----------------------------------------------------------------

#: an INTEGER and a DOUBLE column: empty stores start in the vector form
PAIR = Schema((Column("k", SqlType.INTEGER), Column("v", SqlType.DOUBLE)))


def rows_of(n, arity=2):
    rng = random.Random(n * 31 + arity)
    return [tuple(rng.randrange(100) if j % 2 == 0 else rng.random()
                  for j in range(arity))
            for _ in range(n)]


@pytest.mark.parametrize("chunk", [1, 4, 16])
@pytest.mark.parametrize("n", [0, 1, 3, 4, 15, 16, 17, 33])
def test_store_boundaries(chunk, n):
    # Rows appended in chunks of 1, 4 or 16, each folded into the
    # vectors by a read before the next, present the same list-like
    # surface as the row backend, still in the vector form.
    rows = rows_of(n)
    store = ColumnStore(PAIR)
    for start in range(0, n, chunk):
        store.extend(rows[start:start + chunk])
        assert store.vectors() is not None
    assert len(store) == n
    assert list(store) == rows
    assert store.materialized() == rows
    for j in range(2):
        assert store.column(j) == [r[j] for r in rows]
    assert [vector.tolist() for vector in store.vectors()] == \
        [[r[j] for r in rows] for j in range(2)]


def test_store_append_vs_extend_equivalence():
    rows = rows_of(40)
    one = ColumnStore(PAIR)
    two = ColumnStore(PAIR)
    for row in rows:
        one.append(row)
    two.extend(rows)
    assert list(one) == list(two) == rows
    assert one.vectors() is not None and two.vectors() is not None


def test_store_setitem_ends_the_vector_form():
    rows = rows_of(12)
    store = ColumnStore(PAIR)
    store.extend(rows)
    held = store.vectors()
    store[5] = (999, 0.5)
    assert store[5] == (999, 0.5)
    assert store.vectors() is None  # the rows carry on as the overlay
    assert list(store) == rows[:5] + [(999, 0.5)] + rows[6:]
    assert held[0].tolist() == [r[0] for r in rows]  # never written


def test_store_assign_and_lazy_recolumnarisation():
    rows = rows_of(20)
    store = ColumnStore(PAIR)
    store.extend(rows_of(8))
    store.assign(rows)
    assert store.row_assigns == 1
    assert list(store) == rows
    assert store.column(1) == [r[1] for r in rows]
    assert store.array(0).tolist() == [r[0] for r in rows]
    store.clear()
    assert len(store) == 0 and store.vectors() is not None


@pytest.mark.parametrize("positions", [(0,), (0, 1)])
def test_store_join_index_positions(positions):
    rows = [(1, 10.0), (2, 20.0), (1, 30.0), (None, 40.0), (3, 50.0)]
    store = ColumnStore(PAIR)
    store.extend(rows)
    index, observed = store.join_index(positions, "positions")
    assert observed == 4  # NULL keys excluded
    if len(positions) == 1:
        assert index[1] == [0, 2]
    else:
        assert index[(1, 10.0)] == [0]
    # Cache: same object until a mutation invalidates it.
    assert store.join_index(positions, "positions")[0] is index
    store.append((9, 90.0))
    assert store.join_index(positions, "positions")[0] is not index


def test_store_unknown_join_index_kind():
    store = ColumnStore(Schema.of("c"))
    store.extend([(1.0,)])
    with pytest.raises(ValueError):
        store.join_index((0,), "bogus")


def test_make_storage_backends():
    assert isinstance(make_storage("rows", PAIR), RowStore)
    assert isinstance(make_storage("columnar", PAIR), ColumnStore)
    with pytest.raises(ValueError):
        make_storage("parquet", PAIR)


def test_size_bytes_reflects_compression():
    """The vector form stores 8 bytes a value, far below boxed tuples."""
    rows = [(i, 7.0) for i in range(8192)]
    columnar = ColumnStore(PAIR)
    columnar.extend(rows)
    plain = RowStore()
    plain.extend(rows)
    assert columnar.size_bytes() < plain.size_bytes() / 4


# -- grouped aggregation --------------------------------------------------------


def reference_grouped(function, keys, values):
    """The tuple operators' fold: each group's values in first-seen group
    order, reduced by ``_finish_aggregate``."""
    groups = {}
    for key, value in zip(keys, values):
        groups.setdefault(key, []).append(value)
    return [(key, _finish_aggregate(function, group))
            for key, group in groups.items()]


@pytest.mark.parametrize("seed", range(8))
def test_grouped_kernels_match_reference(seed):
    """``array_grouped`` over dense keys (slot ``key - min``) and keys far
    sparser than the row count (numbered by ``np.unique``)."""
    rng = random.Random(seed)
    n = rng.choice([1, 10, 500])
    dense = rng.random() < 0.5
    keys = [rng.randrange(20 if dense else 1 << 40) for _ in range(n)]
    if rng.random() < 0.3:
        keys = [-k for k in keys]
    values = ([float(rng.randrange(100)) for _ in range(n)]
              if rng.random() < 0.5
              else [rng.randrange(-1000, 1000) for _ in range(n)])
    key_vector = np.array(keys, dtype=np.int64)
    for function in ("sum", "min", "max", "count"):
        group_keys, aggregate = array_grouped(
            function, key_vector,
            None if function == "count" else exact_array(values))
        got = list(zip(group_keys.tolist(), aggregate.tolist()))
        assert repr(got) == repr(reference_grouped(function, keys, values))


def grouped_sum_pair(keys, values):
    """``select K, sum(V) from R group by K`` as the batch aggregate over a
    batch-backed relation and as the tuple operator over its rows."""
    schema = Schema.of("K", "V")
    rows = list(zip(keys, values))
    spec = [AggregateSpec("sum", col("R.V"), "s")]
    batch_scan = RelationScan(Relation.from_batch(
        schema, RowsColumns(rows, 2)), "R")
    tuple_scan = RelationScan(Relation(schema, rows), "R")
    return (BatchHashAggregate(batch_scan, [col("R.K")], spec),
            HashAggregate(tuple_scan, [col("R.K")], spec))


#: (keys, values) that would each go wrong under naive vectorisation
SUM_GUARDS = [
    ([1, 1], [1 << 70, 1]),             # outside int64
    ([1] * 8, [1 << 61] * 8),           # int64-safe alone, overflows summed
    ([1], [-0.0]),                      # seed-vs-zero sign flip
    ([1, 2, 2], [0.0, -0.0, -0.0]),
    ([1, 1], [float("nan"), 1.0]),      # NaN ordering is sticky
    ([True, 1], [1, 2]),                # bool/int alias one group
    ([1, 2], [1, 2.5]),                 # int beside float
    ([1, 1], [1, 2.5]),
]


def test_grouped_sum_exactness_guards():
    """On each guard input the batch aggregate answers what the tuple
    operator does, ``repr`` for ``repr``, whichever of its paths takes
    it."""
    for keys, values in SUM_GUARDS:
        batch_plan, tuple_plan = grouped_sum_pair(keys, values)
        assert [repr(row) for row in batch_plan.execute().rows] \
            == [repr(row) for row in tuple_plan.execute().rows], values
