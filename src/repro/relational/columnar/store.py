"""Row storage backends: the classic row list and the columnar store.

:class:`Table` delegates its physical row storage to one of these.  Both
expose the same (list-like) surface the engine's write paths use —
``append``/``extend``/``clear``/indexing/iteration plus an ``assign``
that swaps in freshly built contents — so every operator and
union-by-update strategy works unchanged against either backend.

``RowStore`` *is* a Python list (the pre-columnar behaviour, bit for
bit).  ``ColumnStore`` keeps data column-major, in exactly one of two
forms:

* **Vector form** — one plain int64/float64 typed vector per column.
  An empty store starts here when every column of its schema is INTEGER
  or DOUBLE (zero-length vectors of those dtypes); ``assign_vectors``,
  ``append_vectors`` and a bulk load swap vectors in.  ``array(j)``
  answers with its vector as it is; ``column(j)`` and ``materialized()``
  decode on demand, one ``tolist`` each.  Appends are recorded and
  folded into new vectors on the next read, deletes keep the survivors
  as new vectors — the vectors are never written to, so a snapshot
  shares them.  A folded value the column's dtype cannot hold exactly
  (NULL, NaN, bool, text, an int past int64, an int onto float64 or a
  float onto int64), an in-place update or an ``assign`` ends the form.
* **Row overlay** — the contents as a row-tuple list: ``assign`` (the
  rebuild half of union-by-update) takes ownership of the new list, and
  a store with a column of any other type starts here.  Columns are
  derived lazily on first columnar access, one ``itemgetter`` pass each.
  This keeps the recursive loop's per-iteration rebuilds O(|rows|) list
  work with no mandatory re-encode, the delta-store trade every columnar
  engine makes between write- and read-optimised representations.

Reads are served from caches — a materialised row list, decoded full
columns (as lists and, where exact, as typed arrays) and join indexes —
that every mutation drops (appends and deletes keep the row list and key
indexes current; see :meth:`ColumnStore.join_index`).  ``size_bytes``
excludes them so space accounting reflects the stored data, and
``drop_caches`` releases them for honest measurement.
"""

from __future__ import annotations

import sys
from itertools import compress
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..physical.blocks import (
    ArrayVector,
    _concat_arrays,
    _freeze,
    csr_index,
    exact_array,
    position_index,
    sorted_index,
)
from ..schema import Schema
from ..types import SqlType

#: The empty vector form's vector per column type, read-only and shared
#: by every store: an empty column is the same data in any of them.
_EMPTY = {SqlType.INTEGER: ArrayVector(np.empty(0, dtype=np.int64)),
          SqlType.DOUBLE: ArrayVector(np.empty(0, dtype=np.float64))}
_freeze(*_EMPTY.values())


def _keep_mask(length: int, dead: Iterable[int]) -> list[bool]:
    """A keep-flag per position, False at the *dead* ones — the selector
    :func:`itertools.compress` filters a row or column list with in C."""
    keep = [True] * length
    for pos in dead:
        keep[pos] = False
    return keep


def _row_bytes(rows: list) -> int:
    """Bytes of a row-tuple list: the list, its tuples and their values."""
    return sys.getsizeof(rows) + sum(
        sys.getsizeof(row) + sum(map(sys.getsizeof, row)) for row in rows)


class RowStore(list):
    """Row-major storage: a plain Python list of row tuples."""

    storage = "rows"

    def assign(self, rows: list) -> None:
        """Replace the full contents (callers hand over a fresh list)."""
        self[:] = rows

    def delete_positions(self, positions: Sequence[int]) -> None:
        """Remove the rows at *positions* (one filtering pass)."""
        if not positions:
            return
        self[:] = list(compress(self, _keep_mask(len(self), positions)))

    def gather(self, positions: Sequence[int]) -> list:
        """The rows at *positions*."""
        return [self[pos] for pos in positions]

    def materialized(self) -> list:
        """The live row list (no copy)."""
        return self

    def size_bytes(self) -> int:
        return _row_bytes(self)

    def drop_caches(self) -> None:
        pass


class ColumnStore:
    """Column-major storage: typed vectors or a row overlay."""

    storage = "columnar"

    def __init__(self, schema: Schema):
        self.arity = schema.arity
        empty = [_EMPTY.get(column.sql_type) for column in schema.columns]
        # The empty contents: zero-length vectors of the schema's dtypes,
        # or None (the row overlay) for a column of any other type.
        self._empty = tuple(empty) if empty and None not in empty else None
        # Vector form: one plain typed vector per column, else None, and
        # the rows appended since (folded in on the next read, so a loop
        # of single-row appends does not copy the vectors once per row).
        self._vectors: tuple | None = self._empty
        self._pending: list = []
        # Row list: authoritative in the row overlay; in the vector form
        # a cache of the contents (None until asked for).
        self._rows: list | None = [] if self._empty is None else None
        self._len = 0
        self._col_cache: dict[int, list] = {}
        self._index_cache: dict = {}
        #: Counts mutations: what a plan kept over this store's arrays is
        #: validated against besides their identity.
        self.version = 0
        #: Whole-contents replacements (surfaced through MetricsRegistry).
        self.row_assigns = 0

    # -- list-like surface used by the engine's write paths ------------

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.materialized())

    def __getitem__(self, pos):
        return self.materialized()[pos]

    def __setitem__(self, pos: int, row: tuple) -> None:
        if pos < 0:
            pos += self._len
        if not 0 <= pos < self._len:
            raise IndexError("row position out of range")
        if self._vectors is not None:
            # The vectors are never written: the rows carry on.
            self.materialized()
            self._vectors = None
            self._pending = []
        self._touch()
        self._rows[pos] = row

    def append(self, row: tuple) -> None:
        self._touch(lambda index, _: index)  # patched on the fold
        if self._rows is not None:
            self._rows.append(row)
        if self._vectors is not None:
            self._pending.append(row)
        self._len += 1

    def extend(self, rows: Iterable[tuple]) -> int:
        rows = rows if isinstance(rows, list) else list(rows)
        if not rows:
            return 0
        self._touch(lambda index, _: index)
        if self._rows is not None:
            self._rows.extend(rows)
        if self._vectors is not None:
            self._pending.extend(rows)
        self._len += len(rows)
        return len(rows)

    def clear(self) -> None:
        self._touch()
        self._vectors = self._empty
        self._pending = []
        self._rows = [] if self._empty is None else None
        self._len = 0

    def assign(self, rows: list) -> None:
        """Swap in new contents as the row overlay; columns are rebuilt
        lazily on demand."""
        self._vectors = None
        self._pending = []
        self._touch()
        self._rows = rows if isinstance(rows, list) else list(rows)
        self._len = len(self._rows)
        self.row_assigns += 1

    def assign_vectors(self, vectors: Sequence) -> None:
        """Swap in new contents in the vector form: one plain
        :class:`~repro.relational.physical.blocks.ArrayVector` per column
        (int64 or float64, values in stored form); rows and list columns
        are decoded on demand.  A key index over key vectors passed back
        as the same objects survives."""
        vectors, old = tuple(vectors), self._vectors
        self._take_vectors(vectors, lambda index, keys: index if all(
            vectors[j] is old[j] for j in keys) else None)

    def _take_vectors(self, vectors: tuple, patch) -> None:
        self._touch(patch)
        self._vectors = vectors
        self._pending = []
        self._rows = None
        self._len = len(vectors[0].data)
        self.row_assigns += 1

    def append_vectors(self, vectors: Sequence) -> bool:
        """Append rows given as one plain typed vector per column (values
        in stored form).  The result is held in the vector form as new
        vectors — concatenations; no array is written — so snapshots of
        the old contents stay as they were.  False, nothing changed,
        unless the store is empty or has a plain typed view of the same
        dtype for every column."""
        if not self._len:
            self.assign_vectors(vectors)
            return True
        old = self.vectors() or [self.array(j) for j in range(self.arity)]
        if not all(before is not None and before.ints is None
                   and before.data.dtype == added.data.dtype
                   for before, added in zip(old, vectors)):
            return False
        start = self._len
        self._take_vectors(
            tuple(map(_concat_arrays, old, vectors)),
            lambda index, keys: index.appended([vectors[j] for j in keys],
                                               start))
        return True

    def vectors(self) -> tuple | None:
        """The vector form's vectors, appended rows folded in — nothing
        is decoded to answer — or None in the row overlay."""
        if self._pending:
            self._fold()
        return self._vectors

    def delete_positions(self, positions: Sequence[int]) -> None:
        """Remove the rows at the given (live) *positions*: the vector
        form keeps the survivors as new vectors (deleting every row
        leaves an empty store), the row overlay filters its list."""
        if not positions:
            return
        dead = sorted(set(positions))
        if dead[0] < 0 or dead[-1] >= self._len:
            raise IndexError("delete position out of range")
        if self.vectors() is not None:
            if len(dead) == self._len:
                self.clear()
                return
            keep = np.ones(self._len, dtype=bool)
            keep[dead] = False
            self._vectors = tuple(vector.take(keep)
                                  for vector in self._vectors)
            self._touch(lambda index, _: index.without(keep))
        else:
            self._touch()
        if self._rows is not None:
            self._rows = list(compress(self._rows,
                                       _keep_mask(len(self._rows), dead)))
        self._len -= len(dead)

    # -- reads ----------------------------------------------------------

    def materialized(self) -> list:
        """The full contents as a live row-tuple list (cached) — in the
        vector form built from the vectors, so nothing is decoded."""
        if self._rows is None and self.vectors() is not None:
            self._rows = list(zip(*(vector.tolist()
                                    for vector in self._vectors)))
        return self._rows

    def gather(self, positions: Sequence[int]) -> list:
        """The rows at *positions*: from the row list when one is held,
        else from the vectors (one gather each) — no whole-table rows."""
        if self._rows is None and self.vectors() is not None:
            index = np.asarray(positions, dtype=np.intp)
            return list(zip(*(vector.data[index].tolist()
                              for vector in self._vectors)))
        rows = self._rows
        return [rows[pos] for pos in positions]

    def column(self, j: int) -> list:
        """Column *j* as one value list (cached)."""
        cached = self._col_cache.get(j)
        if cached is None:
            if self.vectors() is not None:
                # The typed vector holds exactly the column's values.
                cached = self._vectors[j].tolist()
            else:
                # The row overlay gives up just this column in one C pass
                # instead of a whole-table transpose — a fixpoint loop
                # that only reads the key column between assigns never
                # pays for the rest.
                cached = list(map(itemgetter(j), self._rows))
            self._col_cache[j] = cached
        return cached

    def array(self, j: int):
        """Column *j* as an exact typed vector, or None when the column
        has none (:func:`repro.relational.physical.blocks.exact_array`).
        The vector form answers with its vector as it is; the row overlay
        with ``exact_array(column(j))``, cached until the next
        mutation."""
        vectors = self.vectors()
        if vectors is not None:
            return vectors[j]
        cache_key = ("array", j)
        if cache_key not in self._index_cache:
            self._index_cache[cache_key] = exact_array(self.column(j))
        return self._index_cache[cache_key]

    def join_index(self, key_positions: tuple[int, ...], kind: str) -> tuple:
        """Cached position index over the current contents.

        ``"positions"`` maps each key — a value for one key column, a
        tuple for several — to the list of row positions holding it; NULL
        keys are excluded, matching the executors' build loops.  ``"csr"``
        is its typed-array form for one dense all-int key column — a
        :class:`~repro.relational.physical.blocks.CsrIndex`, or None when
        the column is anything else (NULLs included) — and ``"sorted"``
        for several all-int key columns, a
        :class:`~repro.relational.physical.blocks.SortedIndex` over their
        packed keys.  Returns ``(index, build_rows_observed)``; the cache
        survives until any mutation, so a fixpoint loop probing a static
        build table pays the build cost once instead of once per
        iteration.  In the vector form the ``"csr"`` and ``"sorted"``
        indexes are the table's key map, which mutations patch
        (:meth:`_touch`).
        """
        self.vectors()  # fold appended rows in: the index then covers them
        cache_key = (kind, key_positions)
        hit = self._index_cache.get(cache_key)
        if hit is not None:
            return hit
        if kind in ("csr", "sorted"):
            if kind == "csr":
                index = csr_index(self.array(key_positions[0]))
            else:
                index = sorted_index([self.array(p) for p in key_positions])
            result = (index, 0 if index is None else len(index))
        elif kind == "positions":
            result = position_index([self.column(p) for p in key_positions])
        else:
            raise ValueError(f"unknown join index kind {kind!r}")
        self._index_cache[cache_key] = result
        return result

    # -- maintenance ----------------------------------------------------

    def drop_caches(self) -> None:
        """Release decode/row/index caches (space measurement honesty)."""
        self._col_cache.clear()
        self._index_cache.clear()
        if self._vectors is not None:
            self._rows = None

    def size_bytes(self) -> int:
        """Resident bytes of the stored data, caches excluded: the
        vectors' bytes in the vector form, the row list's in the row
        overlay."""
        vectors = self.vectors()
        if vectors is not None:
            return sum(vector.data.nbytes for vector in vectors) + 256
        return _row_bytes(self._rows) + 256

    # -- internals ------------------------------------------------------

    def _touch(self, patch=None) -> None:
        """A mutation: ``version`` advances and the caches go, but for the
        vector form's ``"csr"`` and ``"sorted"`` key indexes that
        ``patch(index, key_positions)`` carries over to the new contents:
        a new index object where it changed, as kept plans hold the old
        one (None drops it)."""
        self.version += 1
        self._col_cache.clear()
        cached, self._index_cache = self._index_cache, {}
        if patch is None or self._vectors is None:
            return
        for (kind, keys), (index, _) in cached.items():
            if kind in ("csr", "sorted") and index is not None:
                index = patch(index, keys)
                if index is not None:
                    self._index_cache[kind, keys] = (index, len(index))

    def _fold(self) -> None:
        """Each vector concatenated with the exact array of its column's
        appended values, which the key indexes are patched to cover —
        unless a column's have none of the same dtype (NULL, NaN, bool,
        text, out of int64, a float onto int64, an int onto float64): then
        the vector form ends, and the rows carry on as the row overlay."""
        rows, self._pending = self._pending, []
        added = [exact_array([row[j] for row in rows])
                 for j in range(self.arity)]
        merged = list(map(_concat_arrays, self._vectors, added))
        if all(vector is not None and vector.ints is None
               for vector in merged):
            start = len(self._vectors[0].data)
            self._touch(lambda index, keys: index.appended(
                [added[j] for j in keys], start))
            self._vectors = tuple(merged)
            return
        self._touch()
        if self._rows is None:
            self._rows = list(zip(*(vector.tolist()
                                    for vector in self._vectors)))
            self._rows.extend(rows)
        self._vectors = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        form = "rows" if self._vectors is None else "vectors"
        return f"<ColumnStore rows={self._len} form={form}>"


def check_storage(storage: str) -> str:
    """*storage* itself when it names a backend (``"rows"`` or
    ``"columnar"``); ``ValueError`` otherwise."""
    if storage not in ("rows", "columnar"):
        raise ValueError(
            f"unknown storage {storage!r}; expected 'rows' or 'columnar'")
    return storage


def make_storage(storage: str, schema: Schema):
    """Build a storage backend by name (``"rows"`` or ``"columnar"``)
    for a table of *schema*."""
    if check_storage(storage) == "rows":
        return RowStore()
    return ColumnStore(schema)
