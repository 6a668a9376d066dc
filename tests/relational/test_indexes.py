"""Hash and sorted indexes, including incremental deletes."""

import pytest
from hypothesis import given, strategies as st

from repro.relational.indexes import HashIndex, SortedIndex, make_index


ROWS = [(3, "c"), (1, "a"), (2, "b"), (1, "a2"), (None, "n")]


class TestHashIndex:
    def test_lookup(self):
        ix = HashIndex("ix", [0])
        ix.bulk_load(ROWS)
        assert {r[1] for r in ix.lookup((1,))} == {"a", "a2"}
        assert ix.lookup((99,)) == []

    def test_incremental_insert(self):
        ix = HashIndex("ix", [0])
        ix.insert((5, "e"))
        assert ix.lookup((5,)) == [(5, "e")]

    def test_clear(self):
        ix = HashIndex("ix", [0])
        ix.bulk_load(ROWS)
        ix.clear()
        assert ix.lookup((1,)) == []


class TestSortedIndex:
    def test_ordered_rows(self):
        ix = SortedIndex("ix", [0])
        ix.bulk_load(ROWS)
        keys = [r[0] for r in ix.ordered_rows()]
        assert keys == sorted(keys)

    def test_null_keys_segregated(self):
        ix = SortedIndex("ix", [0])
        ix.bulk_load(ROWS)
        assert (None, "n") not in ix.ordered_rows()
        assert len(ix) == len(ROWS)

    def test_lookup(self):
        ix = SortedIndex("ix", [0])
        ix.bulk_load(ROWS)
        assert {r[1] for r in ix.lookup((1,))} == {"a", "a2"}

    def test_range_scan(self):
        ix = SortedIndex("ix", [0])
        ix.bulk_load([(i, i) for i in range(10)])
        assert [r[0] for r in ix.range_scan((3,), (6,))] == [3, 4, 5, 6]

    def test_range_scan_open_ended(self):
        ix = SortedIndex("ix", [0])
        ix.bulk_load([(i, i) for i in range(5)])
        assert [r[0] for r in ix.range_scan(low=(3,))] == [3, 4]
        assert [r[0] for r in ix.range_scan(high=(1,))] == [0, 1]

    def test_incremental_insert_preserves_order(self):
        ix = SortedIndex("ix", [0])
        for key in (5, 1, 3, 2, 4):
            ix.insert((key, None))
        assert ix.ordered_keys() == [(1,), (2,), (3,), (4,), (5,)]

    def test_ordered_keys_match_rows(self):
        ix = SortedIndex("ix", [1])  # index on second column
        ix.bulk_load([("x", 2), ("y", 1)])
        assert ix.ordered_keys() == [(1,), (2,)]
        assert ix.ordered_rows() == [("y", 1), ("x", 2)]


class TestFactory:
    def test_kinds(self):
        assert isinstance(make_index("hash", "a", [0]), HashIndex)
        assert isinstance(make_index("btree", "a", [0]), SortedIndex)
        assert isinstance(make_index("sorted", "a", [0]), SortedIndex)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_index("bitmap", "a", [0])


@given(st.lists(st.integers(-50, 50), max_size=60))
def test_sorted_index_agrees_with_sort(keys):
    ix = SortedIndex("ix", [0])
    ix.bulk_load([(k, i) for i, k in enumerate(keys)])
    assert [k for (k,) in ix.ordered_keys()] == sorted(keys)


@given(st.lists(st.integers(0, 10), max_size=40), st.integers(0, 10))
def test_hash_and_sorted_lookup_agree(keys, probe):
    rows = [(k, i) for i, k in enumerate(keys)]
    hash_ix = HashIndex("h", [0])
    sorted_ix = SortedIndex("s", [0])
    hash_ix.bulk_load(rows)
    sorted_ix.bulk_load(rows)
    assert sorted(hash_ix.lookup((probe,))) == sorted(sorted_ix.lookup((probe,)))


INDEXES = (HashIndex, SortedIndex)


@pytest.mark.parametrize("kind", INDEXES)
def test_delete_removes_one_of_two_equal_rows(kind):
    ix = kind("ix", [0])
    ix.bulk_load(ROWS + [(1, "a")])
    ix.delete((1, "a"))
    assert sorted(ix.lookup((1,))) == [(1, "a"), (1, "a2")]
    ix.delete((1, "a"))
    assert ix.lookup((1,)) == [(1, "a2")]
    assert len(ix) == len(ROWS) - 1


@pytest.mark.parametrize("kind", INDEXES)
def test_delete_of_a_null_key_row(kind):
    ix = kind("ix", [0])
    ix.bulk_load(ROWS)
    ix.delete((None, "n"))
    assert len(ix) == len(ROWS) - 1
    if kind is SortedIndex:
        assert ix._null_rows == []
        assert [r[0] for r in ix.ordered_rows()] == [1, 1, 2, 3]


@pytest.mark.parametrize("row", [(99, "z"), (1, "z"), (None, "z")],
                         ids=["absent key", "absent row", "absent NULL row"])
@pytest.mark.parametrize("kind", INDEXES)
def test_delete_of_an_absent_row_raises_key_error(kind, row):
    ix = kind("ix", [0])
    ix.bulk_load(ROWS)
    with pytest.raises(KeyError, match="row not in index 'ix'"):
        ix.delete(row)
    assert len(ix) == len(ROWS)


rows = st.tuples(st.one_of(st.none(), st.integers(0, 6)), st.integers(0, 3))


@given(st.lists(st.tuples(st.booleans(), rows), max_size=60))
def test_inserts_and_deletes_leave_a_fresh_bulk_load(operations):
    """After any insert/delete sequence, each index answers as one
    bulk-loaded from the surviving rows: same lookups, same key order."""
    for kind in INDEXES:
        ix = kind("ix", [0])
        survivors = []
        for insert, row in operations:
            if insert:
                ix.insert(row)
                survivors.append(row)
            elif row in survivors:
                ix.delete(row)
                survivors.remove(row)
            else:
                with pytest.raises(KeyError):
                    ix.delete(row)
        fresh = kind("fresh", [0])
        fresh.bulk_load(survivors)
        assert len(ix) == len(fresh) == len(survivors)
        for key in range(7):
            assert ix.lookup((key,)) == fresh.lookup((key,))
        if kind is SortedIndex:
            assert ix.ordered_rows() == fresh.ordered_rows()
            assert ix.ordered_keys() == fresh.ordered_keys()
            assert sorted(ix._null_rows) == sorted(fresh._null_rows)
        else:
            assert ix.lookup((None,)) == fresh.lookup((None,))
