"""Secondary indexes over tables.

Two families, mirroring what the paper's RDBMSs offer:

* :class:`HashIndex` — O(1) equality lookup, the structure behind hash joins
  and Oracle/DB2's preferred plans;
* :class:`SortedIndex` — a sorted-key index (a stand-in for a B+-tree)
  supporting equality and range probes and, crucially, *ordered scans*:
  PostgreSQL's merge-join plans can read the join column in key order from
  this index instead of sorting the table, which is exactly the effect the
  paper measures in Exp-A (Fig 10).

Indexes are maintained incrementally on insert and rebuilt on truncate.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable, Iterator, Sequence

Row = tuple


class Index:
    """Common interface: build from rows, probe by key."""

    def __init__(self, name: str, key_positions: Sequence[int]):
        self.name = name
        self.key_positions = tuple(key_positions)

    def key_of(self, row: Row) -> tuple:
        return tuple(row[i] for i in self.key_positions)

    def insert(self, row: Row) -> None:
        raise NotImplementedError

    def delete(self, row: Row) -> None:
        """Remove one occurrence of *row* (for incremental maintenance);
        :class:`KeyError` when the index holds none."""
        raise NotImplementedError

    def _absent(self) -> KeyError:
        return KeyError(f"row not in index {self.name!r}")

    def bulk_load(self, rows: Iterable[Row]) -> None:
        for row in rows:
            self.insert(row)

    def clear(self) -> None:
        raise NotImplementedError

    def lookup(self, key: tuple) -> list[Row]:
        raise NotImplementedError


class HashIndex(Index):
    """Equality-only index: key → list of rows."""

    def __init__(self, name: str, key_positions: Sequence[int]):
        super().__init__(name, key_positions)
        self._buckets: dict[tuple, list[Row]] = {}

    def insert(self, row: Row) -> None:
        self._buckets.setdefault(self.key_of(row), []).append(row)

    def delete(self, row: Row) -> None:
        key = self.key_of(row)
        bucket = self._buckets.get(key)
        if bucket is None or row not in bucket:
            raise self._absent()
        bucket.remove(row)
        if not bucket:
            del self._buckets[key]

    def clear(self) -> None:
        self._buckets.clear()

    def lookup(self, key: tuple) -> list[Row]:
        return self._buckets.get(tuple(key), [])

    def __len__(self) -> int:
        return sum(len(v) for v in self._buckets.values())

    def keys(self) -> Iterator[tuple]:
        return iter(self._buckets)


class SortedIndex(Index):
    """Sorted (key, row) pairs — equality, range and ordered scans.

    Keys containing NULL are kept in a side list (SQL indexes vary here; we
    exclude them from range scans, like a B+-tree with NULLS excluded).
    """

    def __init__(self, name: str, key_positions: Sequence[int]):
        super().__init__(name, key_positions)
        self._keys: list[tuple] = []
        self._rows: list[Row] = []
        self._null_rows: list[Row] = []

    def insert(self, row: Row) -> None:
        key = self.key_of(row)
        if any(v is None for v in key):
            self._null_rows.append(row)
            return
        pos = bisect.bisect_right(self._keys, key)
        self._keys.insert(pos, key)
        self._rows.insert(pos, row)

    def delete(self, row: Row) -> None:
        key = self.key_of(row)
        if any(v is None for v in key):
            if row not in self._null_rows:
                raise self._absent()
            self._null_rows.remove(row)
            return
        lo = bisect.bisect_left(self._keys, key)
        hi = bisect.bisect_right(self._keys, key)
        for i in range(lo, hi):
            if self._rows[i] == row:
                del self._keys[i]
                del self._rows[i]
                return
        raise self._absent()

    def bulk_load(self, rows: Iterable[Row]) -> None:
        pairs = []
        for row in rows:
            key = self.key_of(row)
            if any(v is None for v in key):
                self._null_rows.append(row)
            else:
                pairs.append((key, row))
        pairs.sort(key=lambda kr: kr[0])
        if self._keys:
            for key, row in pairs:
                pos = bisect.bisect_right(self._keys, key)
                self._keys.insert(pos, key)
                self._rows.insert(pos, row)
        else:
            self._keys = [k for k, _ in pairs]
            self._rows = [r for _, r in pairs]

    def clear(self) -> None:
        self._keys.clear()
        self._rows.clear()
        self._null_rows.clear()

    def lookup(self, key: tuple) -> list[Row]:
        key = tuple(key)
        lo = bisect.bisect_left(self._keys, key)
        hi = bisect.bisect_right(self._keys, key)
        return self._rows[lo:hi]

    def range_scan(self, low: tuple | None = None,
                   high: tuple | None = None) -> Iterator[Row]:
        """Rows with low <= key <= high, in key order."""
        lo = 0 if low is None else bisect.bisect_left(self._keys, tuple(low))
        hi = len(self._keys) if high is None else \
            bisect.bisect_right(self._keys, tuple(high))
        return iter(self._rows[lo:hi])

    def ordered_rows(self) -> list[Row]:
        """All indexed rows in key order (the merge-join feed)."""
        return self._rows

    def ordered_keys(self) -> list[tuple]:
        return self._keys

    def __len__(self) -> int:
        return len(self._rows) + len(self._null_rows)


def make_index(kind: str, name: str, key_positions: Sequence[int]) -> Index:
    """Factory: ``kind`` is ``"hash"`` or ``"btree"``."""
    if kind == "hash":
        return HashIndex(name, key_positions)
    if kind in ("btree", "sorted"):
        return SortedIndex(name, key_positions)
    raise ValueError(f"unknown index kind {kind!r}")
