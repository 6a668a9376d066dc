"""Columnar storage: codec round-trips, chooser rules, store surface.

The encoding layer's one contract is that ``encode_column`` →
``decode`` is the *identity* — same values, same Python types, NULLs
included — for every codec and every column shape.  The property tests
here drive that contract over seeded random columns (NULL-heavy, empty,
single-value, high-cardinality) and the store tests walk the morsel
boundaries (size 1, exact multiples, ragged tails) plus the mutation
paths that decay sealed blocks.
"""

import math
import random
import struct

import numpy as np
import pytest

from repro.relational.columnar import (
    MORSEL,
    ColumnBlock,
    ColumnStore,
    DeltaColumn,
    DictionaryColumn,
    FloatColumn,
    ForColumn,
    IntColumn,
    PlainColumn,
    RLEColumn,
    RowStore,
    encode_column,
    make_storage,
    pack_nulls,
    unpack_nulls,
)
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
from repro.relational.schema import Schema


def assert_identity(values):
    """encode → decode returns equal values of the exact same types."""
    codec = encode_column(values)
    decoded = codec.decode()
    assert decoded == list(values)
    assert [type(v) for v in decoded] == [type(v) for v in values]
    assert len(codec) == len(values)
    assert codec.size_bytes() >= 0
    return codec


# -- per-codec round-trips ----------------------------------------------------


def test_empty_column():
    codec = assert_identity([])
    assert isinstance(codec, PlainColumn)


def test_single_value_columns():
    for value in (0, -1, 7.5, "x", None, True, False, 1 << 70):
        assert_identity([value])


def test_constant_column_uses_rle():
    codec = assert_identity([42] * 1000)
    assert isinstance(codec, RLEColumn)
    assert codec.size_bytes() < 1000  # compressed far below a plain list


def test_runs_use_rle():
    values = [1] * 50 + [None] * 50 + ["a"] * 50 + [2.5] * 50
    codec = assert_identity(values)
    assert isinstance(codec, RLEColumn)


def test_sorted_ints_use_delta():
    codec = assert_identity(list(range(0, 4000, 3)))
    assert isinstance(codec, DeltaColumn)


def test_narrow_range_ints_use_for():
    base = 1 << 40
    values = [base + (i * 37) % 200 for i in range(500)]
    codec = assert_identity(values)
    assert isinstance(codec, ForColumn)


def test_wide_ints_use_int64():
    values = [(i * 2654435761) % (1 << 62) - (1 << 61) for i in range(300)]
    codec = assert_identity(values)
    assert isinstance(codec, IntColumn)


def test_huge_ints_fall_back_to_plain():
    values = [(1 << 70) + i for i in range(100)]
    codec = assert_identity(values)
    assert not isinstance(codec, (IntColumn, ForColumn, DeltaColumn))


def test_floats_use_float64():
    rng = random.Random(5)
    values = [rng.random() * 1e6 - 5e5 for _ in range(400)]
    codec = assert_identity(values)
    assert isinstance(codec, FloatColumn)


def test_nan_keeps_original_object():
    nan = float("nan")
    values = [nan, 1.0, nan] * 100
    codec = encode_column(values)
    decoded = codec.decode()
    # NaN != NaN, so identity has to hold at the object level: the codec
    # must hand back the very same NaN it was given.
    assert decoded[0] is nan and decoded[2] is nan
    assert decoded[1] == 1.0


def test_low_cardinality_text_uses_dictionary():
    rng = random.Random(6)
    words = ["alpha", "beta", "gamma", None]
    values = [rng.choice(words) for _ in range(600)]
    rng.shuffle(values)  # break runs so RLE does not claim it
    codec = assert_identity(values)
    assert isinstance(codec, DictionaryColumn)


def test_dictionary_codes_for_respects_sql_equality():
    values = (["x"] * 3 + ["y"] * 3 + [None] * 3) * 40
    rng = random.Random(7)
    rng.shuffle(values)
    codec = encode_column(values)
    assert isinstance(codec, DictionaryColumn)
    (x_code,) = codec.codes_for("x")
    assert codec.values[x_code] == "x"
    assert codec.codes_for("missing") == []
    assert codec.codes_for(None) == []  # NULL never equals anything


def test_high_cardinality_text_uses_plain():
    values = [f"value-{i}" for i in range(500)]
    codec = assert_identity(values)
    assert isinstance(codec, PlainColumn)


def test_mixed_types_round_trip_exactly():
    # 1, 1.0 and True are ==-equal and hash-equal; the codecs must keep
    # them distinct so decoded values have the exact original types.
    values = [1, 1.0, True, 1, 1.0, True] * 80
    assert_identity(values)
    rng = random.Random(8)
    soup = [rng.choice([0, 0.0, False, "0", None]) for _ in range(400)]
    assert_identity(soup)


# -- bit-exact fidelity -------------------------------------------------------

#: column → the codec encode_column's selection rules pick for it.
CODEC_COLUMNS = {
    "rle": [7] * 40 + [8] * 24,
    "rle_nulls": [None] * 30 + ["x"] * 34,
    "for": list(range(1000, 1064)),
    "for_nulls": [None if i % 7 == 0 else 1000 + i for i in range(64)],
    "delta": list(range(0, 640, 10)),
    "int64": [(-1) ** i * i * 10**14 for i in range(64)],
    "int64_nulls": [None if i % 5 == 0 else (-1) ** i * i * 10**14
                    for i in range(64)],
    "float64": [i * 0.1 for i in range(64)],
    "float64_nulls": [None if i % 3 == 0 else i * 0.1
                      for i in range(64)],
    "dictionary": [f"tag-{i % 5}" for i in range(64)],
    "plain": [float("nan") if i % 3 == 0 else f"mix-{i}"
              for i in range(64)],
}


def _bits(value):
    """A bit-exact fingerprint: floats by IEEE bits, the rest by repr and
    type (1 vs 1.0 vs True and -0.0 vs 0.0 must not collapse)."""
    if isinstance(value, float):
        return ("f", struct.pack("<d", value))
    return (type(value).__name__, repr(value))


def test_every_codec_roundtrips_bit_for_bit():
    columns = [encode_column(values) for values in CODEC_COLUMNS.values()]
    # the fixture must actually cover all seven codecs
    assert {column.name for column in columns} == {
        "rle", "for", "delta", "int64", "float64", "dictionary", "plain"}
    for column, values in zip(columns, CODEC_COLUMNS.values()):
        assert [_bits(v) for v in column.decode()] == \
            [_bits(v) for v in values]


def test_roundtrip_preserves_bool_int_and_negative_zero():
    # encode_column keys float zeros by copysign, so -0.0 and 0.0 keep
    # distinct dictionary/run entries and every value decodes bit for bit.
    tricky = [True, False, 1, 0, -0.0, 0.0, 1.0, None]
    assert [_bits(v) for v in encode_column(tricky).decode()] == \
        [_bits(v) for v in tricky]


def test_encode_column_constant_negative_zero_keeps_sign():
    # An all -0.0 column is a legitimate constant run; an almost-constant
    # one (one +0.0 in the middle) must not collapse into it.
    constant = encode_column([-0.0] * 64)
    assert all(math.copysign(1.0, v) == -1.0 for v in constant.decode())
    mixed = [-0.0] * 32 + [0.0] + [-0.0] * 31
    decoded = encode_column(mixed).decode()
    assert [math.copysign(1.0, v) for v in decoded] == \
        [math.copysign(1.0, v) for v in mixed]


# -- null bitmap --------------------------------------------------------------


def test_null_bitmap_round_trip():
    rng = random.Random(9)
    for length in (0, 1, 7, 8, 9, 64, 100):
        values = [None if rng.random() < 0.4 else i for i in range(length)]
        bitmap = pack_nulls(values)
        expected = [i for i, v in enumerate(values) if v is None]
        if not expected:
            assert bitmap is None
        else:
            assert unpack_nulls(bitmap, length) == expected


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
        lambda: rng.randrange(-50, 50),                # narrow ints (FOR)
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


# -- blocks and the store -----------------------------------------------------


def test_block_seal_round_trips_every_column():
    columns = [
        list(range(100)),
        [float(i) / 3 for i in range(100)],
        [None if i % 7 == 0 else f"s{i % 5}" for i in range(100)],
    ]
    block = ColumnBlock.seal([list(c) for c in columns])
    assert block.length == 100
    for j, original in enumerate(columns):
        assert block.decode_column(j) == original


def rows_of(n, arity=2):
    rng = random.Random(n * 31 + arity)
    return [tuple(rng.randrange(100) if j % 2 == 0 else rng.random()
                  for j in range(arity))
            for _ in range(n)]


@pytest.mark.parametrize("morsel", [1, 4, 16])
@pytest.mark.parametrize("n", [0, 1, 3, 4, 15, 16, 17, 33])
def test_store_boundaries(morsel, n):
    # Morsel size 1, exact multiples and ragged tails all present the
    # same list-like surface as the row backend.
    rows = rows_of(n)
    store = ColumnStore(arity=2, morsel=morsel)
    store.extend(rows)
    assert len(store) == n
    assert list(store) == rows
    assert store.materialized() == rows
    for j in range(2):
        assert store.column(j) == [r[j] for r in rows]
    if n and n % morsel == 0:
        # Exact multiples leave no ragged tail: everything is sealed.
        assert all(isinstance(b, ColumnBlock) for b in store.blocks())
        assert store.blocks_sealed == n // morsel


def test_store_append_vs_extend_equivalence():
    rows = rows_of(40)
    one = ColumnStore(arity=2, morsel=8)
    two = ColumnStore(arity=2, morsel=8)
    for row in rows:
        one.append(row)
    two.extend(rows)
    assert list(one) == list(two) == rows
    assert one.blocks_sealed == two.blocks_sealed == 5


def test_store_setitem_decays_only_the_touched_block():
    store = ColumnStore(arity=2, morsel=4)
    store.extend(rows_of(12))
    sealed_before = store.blocks_sealed
    store[5] = (999, 0.5)
    assert store[5] == (999, 0.5)
    assert store.block_decays == 1
    # compact() re-seals the decayed block.
    store.compact()
    assert store.blocks_sealed == sealed_before + 1
    assert "decayed" not in store.encoding_summary()


def test_store_assign_and_lazy_recolumnarisation():
    rows = rows_of(20)
    store = ColumnStore(arity=2, morsel=4)
    store.extend(rows_of(8))
    store.assign(rows)
    assert store.row_assigns == 1
    assert list(store) == rows
    assert store.column(1) == [r[1] for r in rows]
    store.compact()
    assert list(store) == rows


@pytest.mark.parametrize("positions", [(0,), (0, 1)])
def test_store_join_index_positions(positions):
    rows = [(1, 10.0), (2, 20.0), (1, 30.0), (None, 40.0), (3, 50.0)]
    store = ColumnStore(arity=2, morsel=2)
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
    store = ColumnStore(arity=1, morsel=4)
    store.extend([(1,)])
    with pytest.raises(ValueError):
        store.join_index((0,), "bogus")


def test_make_storage_backends():
    assert isinstance(make_storage("rows", 2), RowStore)
    assert isinstance(make_storage("columnar", 2), ColumnStore)
    with pytest.raises(ValueError):
        make_storage("parquet", 2)


def test_size_bytes_reflects_compression():
    rows = [(i, 7) for i in range(4 * MORSEL)]
    columnar = ColumnStore(arity=2)
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
