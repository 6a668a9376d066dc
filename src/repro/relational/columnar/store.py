"""Row storage backends: the classic row list and the columnar store.

:class:`Table` delegates its physical row storage to one of these.  Both
expose the same (list-like) surface the engine's write paths use —
``append``/``extend``/``clear``/indexing/iteration plus an ``assign``
that swaps in freshly built contents — so every operator and
union-by-update strategy works unchanged against either backend.

``RowStore`` *is* a Python list (the pre-columnar behaviour, bit for
bit).  ``ColumnStore`` keeps data column-major, in exactly one of three
forms:

* **Vector form** — ``assign_vectors``, ``append_vectors`` and a bulk
  load swap in one plain int64/float64 typed vector per column.
  ``array(j)`` answers with its vector as it is; ``column(j)`` and
  ``materialized()`` decode on demand, one ``tolist`` each.  Appends
  are recorded and folded into new vectors on the next read, deletes
  keep the survivors as new vectors — the vectors are never written to,
  so a snapshot shares them.  A folded value the column's dtype cannot
  hold exactly, an in-place update or an ``assign`` ends the form (the
  rows carry on as the row overlay); ``compact()`` seals the vectors.
* **Row overlay** — ``assign`` (the rebuild half of union-by-update)
  takes ownership of the new row list; columns are derived lazily on
  first columnar access.  This keeps the recursive loop's per-iteration
  rebuilds O(|rows|) list work with no mandatory re-encode, the
  delta-store trade every columnar engine makes between write- and
  read-optimised representations.
* **Blocks** — immutable :class:`ColumnBlock` morsels of :data:`MORSEL`
  rows, one encoded vector per column (see :mod:`.encodings`), plus the
  ragged tail as plain Python lists, sealed into a block when
  :data:`MORSEL` rows accumulate.  ``extend`` into this form and
  ``compact()`` seal; deletes tombstone sealed rows.

In-place updates (``store[pos] = row``) write through to the column
vectors; a write landing in a sealed block first *decays* that block to
uncompressed column lists (counted in ``block_decays``).  Reads are
served from caches — a materialised row list, decoded full columns (as
lists and, where exact, as typed arrays) and join indexes — that every
mutation drops (appends and deletes keep the row list and key indexes
current; see :meth:`ColumnStore.join_index`).
``size_bytes`` excludes them so space accounting reflects the stored
data, and ``drop_caches`` releases them for honest measurement.
"""

from __future__ import annotations

import sys
from itertools import compress
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..physical.blocks import (
    _concat_arrays,
    csr_index,
    exact_array,
    position_index,
    sorted_index,
)
from .encodings import ColumnCodec, encode_column

#: Rows per sealed block (the storage morsel).
MORSEL = 2048


def _keep_mask(length: int, dead: Iterable[int]) -> list[bool]:
    """A keep-flag per position, False at the *dead* ones — the selector
    :func:`itertools.compress` filters a row or column list with in C."""
    keep = [True] * length
    for pos in dead:
        keep[pos] = False
    return keep


class ColumnBlock:
    """An immutable, sealed morsel: one encoded vector per column."""

    __slots__ = ("columns", "length")

    def __init__(self, columns: Sequence[ColumnCodec], length: int):
        self.columns = tuple(columns)
        self.length = length

    @classmethod
    def seal(cls, column_values: Sequence[list]) -> "ColumnBlock":
        length = len(column_values[0]) if column_values else 0
        return cls([encode_column(values) for values in column_values],
                   length)

    def decode_column(self, j: int) -> list:
        return self.columns[j].decode()

    def size_bytes(self) -> int:
        return sum(codec.size_bytes() for codec in self.columns) + 64


class PlainBlock:
    """A decayed (or lazily built) block: mutable plain column lists."""

    __slots__ = ("columns", "length")

    def __init__(self, columns: Sequence[list]):
        self.columns = list(columns)
        self.length = len(self.columns[0]) if self.columns else 0

    def decode_column(self, j: int) -> list:
        return self.columns[j]

    def size_bytes(self) -> int:
        return sum(sys.getsizeof(col) + sum(map(sys.getsizeof, col))
                   for col in self.columns) + 64


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
        seen_bytes = sum(sys.getsizeof(row) + sum(map(sys.getsizeof, row))
                         for row in self)
        return sys.getsizeof(self) + seen_bytes

    def drop_caches(self) -> None:
        pass


class ColumnStore:
    """Column-major storage: typed vectors, a row overlay, or sealed,
    compressed morsel blocks."""

    storage = "columnar"

    def __init__(self, arity: int, morsel: int = MORSEL):
        self.arity = arity
        self.morsel = morsel
        self._blocks: list = []
        self._tail: list[list] = [[] for _ in range(arity)]
        self._len = 0
        # Row list: authoritative in the row overlay (after assign);
        # otherwise a cache of the contents.
        self._rows: list | None = []
        # True in the vector form and the row overlay: blocks and tail
        # hold nothing until _ensure_columns rebuilds them.
        self._cols_stale = False
        # Vector form: one plain typed vector per column, else None, and
        # the rows appended since (folded in on the next read, so a loop
        # of single-row appends does not copy the vectors once per row).
        self._vectors: tuple | None = None
        self._pending: list = []
        self._col_cache: dict[int, list] = {}
        self._index_cache: dict = {}
        # Tombstones: per sealed-block dead physical offsets.  Deletes
        # mark rows dead instead of re-sealing the table; readers filter,
        # ``compact()`` flushes.  The ragged tail deletes eagerly (plain
        # lists), so it never carries tombstones.
        self._dead: dict[int, set[int]] = {}
        #: Counts mutations: what a plan kept over this store's arrays is
        #: validated against besides their identity.
        self.version = 0
        #: Observable storage counters (surfaced through MetricsRegistry).
        self.blocks_sealed = 0
        self.block_decays = 0
        self.row_assigns = 0
        self.tombstones_set = 0
        self.encoding_counts: dict[str, int] = {}

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
        if self._rows is not None:
            self._rows[pos] = row
        if not self._cols_stale:
            block_idx, offset = self._locate(pos)
            if block_idx is not None:
                block = self._blocks[block_idx]
                for j, value in enumerate(row):
                    block.columns[j][offset] = value
            else:
                for j, value in enumerate(row):
                    self._tail[j][offset] = value

    def append(self, row: tuple) -> None:
        self._touch(lambda index, _: index)  # patched on the fold
        if self._rows is not None:
            self._rows.append(row)
        if self._vectors is not None:
            self._pending.append(row)
        elif not self._cols_stale:
            for j, value in enumerate(row):
                self._tail[j].append(value)
            if len(self._tail[0] if self._tail else ()) >= self.morsel:
                self._seal_tail()
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
        elif not self._cols_stale:
            self._fill_tail(list(map(list, zip(*rows))))
        self._len += len(rows)
        return len(rows)

    def clear(self) -> None:
        self._vectors = None
        self._pending = []
        self._touch()
        self._blocks.clear()
        self._dead.clear()
        self._tail = [[] for _ in range(self.arity)]
        self._rows = []
        self._cols_stale = False
        self._len = 0

    def assign(self, rows: list) -> None:
        """Swap in new contents as the row overlay; columns are rebuilt
        lazily on demand."""
        self._vectors = None
        self._pending = []
        self._touch()
        self._rows = rows if isinstance(rows, list) else list(rows)
        self._len = len(self._rows)
        self._drop_columns()
        self.row_assigns += 1

    def assign_vectors(self, vectors: Sequence) -> None:
        """Swap in new contents in the vector form: one plain
        :class:`~repro.relational.physical.blocks.ArrayVector` per column
        (int64 or float64, values in stored form); rows and list columns
        are decoded on demand.  Nothing is sealed.  A key index over key
        vectors passed back as the same objects survives."""
        vectors, old = tuple(vectors), self._vectors
        self._take_vectors(vectors, lambda index, keys: index if all(
            vectors[j] is old[j] for j in keys) else None)

    def _take_vectors(self, vectors: tuple, patch) -> None:
        self._touch(patch)
        self._vectors = vectors
        self._pending = []
        self._rows = None
        self._len = len(vectors[0].data)
        self._drop_columns()
        self.row_assigns += 1

    def append_vectors(self, vectors: Sequence) -> bool:
        """Append rows given as one plain typed vector per column (values
        in stored form).  The result is held in the vector form as new
        vectors — concatenations; no array is written, no block sealed —
        so snapshots of the old contents stay as they were.  False,
        nothing changed, unless the store is empty or has a plain typed
        view of the same dtype for every column."""
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
        is decoded to answer — or None in any other form."""
        if self._pending:
            self._fold()
        return self._vectors

    def delete_positions(self, positions: Sequence[int]) -> None:
        """Remove the rows at the given (live) *positions*.

        The vector form keeps the survivors as new vectors (deleting
        every row leaves an empty store).  Sealed blocks are not decoded
        or re-sealed: the dead physical offsets are recorded per block
        and filtered on every read until ``compact()`` flushes them.
        Tail rows are filtered eagerly (the tail is mutable plain lists
        anyway)."""
        if not positions:
            return
        dead_logical = sorted(set(positions))
        if dead_logical[0] < 0 or dead_logical[-1] >= self._len:
            raise IndexError("delete position out of range")
        total = len(dead_logical)
        self.tombstones_set += total
        if self.vectors() is not None:
            if total == self._len:
                self.clear()
                return
            keep = np.ones(self._len, dtype=bool)
            keep[dead_logical] = False
            self._vectors = tuple(vector.take(keep)
                                  for vector in self._vectors)
            self._touch(lambda index, _: index.without(keep))
        else:
            self._touch()
        if self._rows is not None:
            self._rows = list(compress(self._rows,
                                       _keep_mask(len(self._rows),
                                                  dead_logical)))
        self._len -= total
        if self._cols_stale:
            return
        cursor = 0
        live_start = 0
        for block_idx, block in enumerate(self._blocks):
            if cursor >= total:
                break
            dead = self._dead.get(block_idx)
            live_len = block.length - (len(dead) if dead else 0)
            live_end = live_start + live_len
            offsets = []
            while cursor < total and dead_logical[cursor] < live_end:
                offsets.append(dead_logical[cursor] - live_start)
                cursor += 1
            if offsets:
                if dead:
                    # Translate live offsets through the existing holes.
                    live = [o for o in range(block.length) if o not in dead]
                    dead.update(live[o] for o in offsets)
                else:
                    self._dead[block_idx] = set(offsets)
            live_start = live_end
        if cursor < total:
            keep = _keep_mask(len(self._tail[0]),
                              [p - live_start for p in dead_logical[cursor:]])
            self._tail = [list(compress(col, keep)) for col in self._tail]

    # -- reads ----------------------------------------------------------

    def materialized(self) -> list:
        """The full contents as a live row-tuple list (cached) — in the
        vector form built from the vectors, so nothing is decoded."""
        if self._rows is None and self.vectors() is not None:
            self._rows = list(zip(*(vector.tolist()
                                    for vector in self._vectors)))
        if self._rows is None:
            rows: list = []
            for block_idx, block in enumerate(self._blocks):
                cols = [block.decode_column(j) for j in range(self.arity)]
                dead = self._dead.get(block_idx)
                if dead:
                    rows.extend(row for offset, row in enumerate(zip(*cols))
                                if offset not in dead)
                else:
                    rows.extend(zip(*cols))
            if self._tail and self._tail[0]:
                rows.extend(zip(*self._tail))
            self._rows = rows
        return self._rows

    def gather(self, positions: Sequence[int]) -> list:
        """The rows at *positions*: from the row list when one is held,
        else from the vectors (one gather each), else assembled from the
        decoded columns — no whole-table rows."""
        if self._rows is None and self.vectors() is not None:
            index = np.asarray(positions, dtype=np.intp)
            return list(zip(*(vector.data[index].tolist()
                              for vector in self._vectors)))
        if self._rows is not None:
            rows = self._rows
            return [rows[pos] for pos in positions]
        columns = [self.column(j) for j in range(self.arity)]
        return [tuple(column[pos] for column in columns)
                for pos in positions]

    def column(self, j: int) -> list:
        """Column *j* as one decoded, concatenated vector (cached)."""
        cached = self._col_cache.get(j)
        if cached is None:
            if self.vectors() is not None:
                # The typed vector holds exactly the column's values.
                cached = self._col_cache[j] = self._vectors[j].tolist()
                return cached
            if self._cols_stale:
                # The row overlay gives up just this column in one C pass
                # instead of a whole-table transpose — a fixpoint loop
                # that only reads the key column between assigns never
                # pays for the rest.
                cached = self._col_cache[j] = list(map(itemgetter(j),
                                                       self._rows))
                return cached
            parts = []
            for block_idx, block in enumerate(self._blocks):
                values = block.decode_column(j)
                dead = self._dead.get(block_idx)
                if dead:
                    values = [v for offset, v in enumerate(values)
                              if offset not in dead]
                parts.append(values)
            parts.append(self._tail[j])
            if len(parts) == 1:
                cached = list(parts[0])
            else:
                cached = []
                for part in parts:
                    cached.extend(part)
            self._col_cache[j] = cached
        return cached

    def array(self, j: int):
        """Column *j* as an exact typed vector, or None when the column
        has none (:func:`repro.relational.physical.blocks.exact_array`).
        The vector form answers with its vector as it is; any other form
        with ``exact_array(column(j))``, cached until the next
        mutation."""
        vectors = self.vectors()
        if vectors is not None:
            return vectors[j]
        cache_key = ("array", j)
        if cache_key not in self._index_cache:
            self._index_cache[cache_key] = exact_array(self.column(j))
        return self._index_cache[cache_key]

    def blocks(self) -> list:
        """The sealed blocks followed by the ragged tail (as a block).

        Blocks carrying tombstones surface as filtered
        :class:`PlainBlock` views, so consumers only ever see live rows.
        """
        self._ensure_columns()
        out = []
        for block_idx, block in enumerate(self._blocks):
            dead = self._dead.get(block_idx)
            if dead:
                cols = [[v for offset, v in enumerate(block.decode_column(j))
                         if offset not in dead]
                        for j in range(self.arity)]
                block = PlainBlock(cols)
            out.append(block)
        if self._tail and self._tail[0]:
            out.append(PlainBlock([list(col) for col in self._tail]))
        return out

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

    def compact(self) -> None:
        """Re-encode decayed/lazy data into sealed, compressed blocks,
        flushing any tombstones (dead rows are dropped for good)."""
        if self._dead and not self._cols_stale:
            # Rebuild through the (filtered) row view: simplest way to
            # restore morsel-aligned blocks after deletions.
            rows = self.materialized()
            self.assign(rows)
        self._ensure_columns()
        tail, self._tail = self._tail, [[] for _ in range(self.arity)]
        self._fill_tail(tail)
        for idx, block in enumerate(self._blocks):
            if isinstance(block, PlainBlock):
                self._blocks[idx] = ColumnBlock.seal(block.columns)
                self._count_encodings(self._blocks[idx])
                self.blocks_sealed += 1

    def drop_caches(self) -> None:
        """Release decode/row/index caches (space measurement honesty)."""
        self._col_cache.clear()
        self._index_cache.clear()
        if self._vectors is not None or not self._cols_stale:
            self._rows = None

    def size_bytes(self) -> int:
        """Resident bytes of the stored data, caches excluded: the
        vectors' bytes in the vector form, else the blocks' and tail's."""
        vectors = self.vectors()
        if vectors is not None:
            return sum(vector.data.nbytes for vector in vectors) + 256
        self._ensure_columns()
        total = sum(block.size_bytes() for block in self._blocks)
        total += sum(sys.getsizeof(col) + sum(map(sys.getsizeof, col))
                     for col in self._tail)
        return total + 256

    def encoding_summary(self) -> dict[str, int]:
        """Sealed-column counts per codec name (live blocks only)."""
        summary: dict[str, int] = {}
        for block in self._blocks:
            if isinstance(block, ColumnBlock):
                for codec in block.columns:
                    summary[codec.name] = summary.get(codec.name, 0) + 1
            else:
                summary["decayed"] = summary.get("decayed", 0) \
                    + len(block.columns)
        return summary

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

    def _drop_columns(self) -> None:
        """Forget blocks and tail: the vectors or the row overlay are
        authoritative now."""
        self._blocks.clear()
        self._dead.clear()
        self._tail = [[] for _ in range(self.arity)]
        self._cols_stale = True

    def _locate(self, pos: int) -> tuple[int | None, int]:
        """Map a live position onto ``(block_idx, offset)`` — or
        ``(None, tail_offset)`` — decaying the target block to a mutable
        :class:`PlainBlock` (tombstones flushed) so the caller can write
        straight into its column lists."""
        live_start = 0
        for block_idx, block in enumerate(self._blocks):
            dead = self._dead.get(block_idx)
            live_len = block.length - (len(dead) if dead else 0)
            if pos < live_start + live_len:
                if dead:
                    cols = [[v for offset, v
                             in enumerate(block.decode_column(j))
                             if offset not in dead]
                            for j in range(self.arity)]
                    if isinstance(block, ColumnBlock):
                        self.block_decays += 1
                    block = PlainBlock(cols)
                    self._blocks[block_idx] = block
                    del self._dead[block_idx]
                elif isinstance(block, ColumnBlock):
                    block = PlainBlock([block.decode_column(j)
                                        for j in range(self.arity)])
                    self._blocks[block_idx] = block
                    self.block_decays += 1
                return block_idx, pos - live_start
            live_start += live_len
        return None, pos - live_start

    def _fill_tail(self, columns: Sequence[list]) -> None:
        """Append one value list per column to the tail, then seal every
        full morsel at its head — the blocks and remainder a seal per
        morsel leaves, without re-slicing the rest each time."""
        for tail, values in zip(self._tail, columns):
            tail.extend(values)
        morsel = self.morsel
        full = len(self._tail[0]) // morsel * morsel if self._tail else 0
        if not full:
            return
        for start in range(0, full, morsel):
            self._seal([col[start:start + morsel] for col in self._tail])
        self._tail = [col[full:] for col in self._tail]

    def _seal_tail(self) -> None:
        morsel = self.morsel
        head = [col[:morsel] for col in self._tail]
        self._tail = [col[morsel:] for col in self._tail]
        self._seal(head)

    def _seal(self, columns: Sequence[list]) -> None:
        block = ColumnBlock.seal(columns)
        self._blocks.append(block)
        self.blocks_sealed += 1
        self._count_encodings(block)

    def _count_encodings(self, block: ColumnBlock) -> None:
        counts = self.encoding_counts
        for codec in block.columns:
            counts[codec.name] = counts.get(codec.name, 0) + 1

    def _ensure_columns(self) -> None:
        # Rebuild columns from the vectors or the row overlay as *plain*
        # tail lists — one ``tolist`` each or one C transpose, no
        # re-encode.  Compression only happens through an explicit
        # ``compact()``; the write paths seal any oversized tail the next
        # time they touch the store.
        if self._cols_stale:
            vectors = self.vectors()
            if vectors is not None:
                self._tail = [vector.tolist() for vector in vectors]
                self._vectors = None
            else:
                rows = self._rows
                self._tail = ([list(col) for col in zip(*rows)] if rows
                              else [[] for _ in range(self.arity)])
            self._blocks.clear()
            self._dead.clear()
            self._cols_stale = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<ColumnStore rows={self._len}"
                f" blocks={len(self._blocks)}"
                f" tail={len(self._tail[0]) if self._tail else 0}>")


def check_storage(storage: str) -> str:
    """*storage* itself when it names a backend (``"rows"`` or
    ``"columnar"``); ``ValueError`` otherwise."""
    if storage not in ("rows", "columnar"):
        raise ValueError(
            f"unknown storage {storage!r}; expected 'rows' or 'columnar'")
    return storage


def make_storage(storage: str, arity: int):
    """Build a storage backend by name (``"rows"`` or ``"columnar"``)."""
    if check_storage(storage) == "rows":
        return RowStore()
    return ColumnStore(arity)
