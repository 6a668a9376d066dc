"""Mutable named tables: storage, constraints, indexes and statistics.

A :class:`Table` wraps row storage with the write operations SQL/PSM
programs need — insert, delete, truncate, per-key update (MERGE) — and
maintains secondary indexes incrementally.  Reads go through
:meth:`snapshot`, which exposes the current contents as an immutable
:class:`~repro.relational.relation.Relation`.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .columnar import make_storage
from .errors import CatalogError, ConstraintError, SchemaError
from .indexes import Index, make_index
from .physical.blocks import (
    _INT64_MAX,
    _INT64_MIN,
    ArrayColumns,
    ArrayVector,
    RowsColumns,
    all_distinct,
    cast_exact,
    exact_array,
    merge_dense_key,
    pack_keys,
)
from .relation import Relation, Row
from .schema import Schema
from .statistics import TableStatistics
from .types import SqlType, coerce, make_row_coercer


class Table:
    """A named, mutable table in a database catalog.

    ``storage`` picks the physical backend behind ``self.rows``:
    ``"rows"`` (a plain Python list of row tuples) or ``"columnar"``
    (typed column vectors or a row overlay — see
    :mod:`repro.relational.columnar`).  Both present the same list-like
    surface, so every caller below is backend-agnostic; the one protocol
    difference is that full-contents swaps go through ``rows.assign``
    instead of rebinding the attribute.
    """

    def __init__(self, name: str, schema: Schema, temporary: bool = False,
                 enforce_key: bool = True, storage: str = "rows"):
        self.name = name
        self.schema = schema
        self.temporary = temporary
        self.enforce_key = enforce_key and bool(schema.primary_key)
        self.storage = storage
        self.rows = make_storage(storage, schema)
        self.indexes: dict[str, Index] = {}
        self.statistics = TableStatistics()
        self._key_positions = schema.key_indexes() if schema.primary_key else ()
        # Compiled row -> coerced-tuple function for this schema; every
        # write-path coercion goes through it (callers check arity first).
        self._coerce_row = make_row_coercer(c.sql_type for c in schema.columns)
        # key-column tuple -> {key value -> row positions}, patched by
        # appends and dropped by any other row mutation; lets the recursive
        # loop's union-by-update do O(|delta|) work.
        self._positions_cache: tuple[tuple[int, ...],
                                     dict[tuple, list[int]]] | None = None
        #: The last union-by-update merge's key plan
        #: (:class:`~repro.relational.physical.blocks.MergePlan`): the next
        #: merge of the same two key vectors reuses its slot map.
        self._merge_plan = None
        #: Maintenance counters (observable cost model): full index
        #: rebuilds vs. incremental per-row index delete/insert operations.
        self.index_rebuilds = 0
        self.incremental_index_ops = 0

    # -- reads -----------------------------------------------------------------

    def snapshot(self) -> Relation:
        """Current contents as an immutable relation."""
        if self.storage == "columnar":
            # The store swaps new vectors in and never writes to old ones,
            # so the relation can share them (no copy, no row tuples).
            vectors = self.rows.vectors()
            if vectors is not None:
                return Relation.from_batch(self.schema, ArrayColumns(vectors))
        # Stored rows are already coerced tuples of the right arity, so
        # skip Relation's per-row validation pass.
        return Relation.from_trusted_rows(self.schema,
                                          self.rows.materialized())

    def __len__(self) -> int:
        return len(self.rows)

    def row_key(self, row: Row) -> tuple:
        return tuple(row[i] for i in self._key_positions)

    # -- writes ----------------------------------------------------------------

    def insert(self, row: Sequence[Any]) -> None:
        """Insert one row, coercing values to the column types."""
        self.insert_many([row])

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        """Batch insert: one coerce/validate pass over all rows, one key
        check (:meth:`_check_keys`), one bulk index load and one
        statistics invalidation.  Validation happens before any mutation,
        so a bad row in the batch leaves the table untouched; the error is
        the one a row-at-a-time insert would meet first."""
        arity = self.schema.arity
        coerce_row = self._coerce_row
        coerced_rows: list[Row] = []
        try:
            for row in rows:
                if len(row) != arity:
                    raise SchemaError(
                        f"insert of arity {len(row)} into {self.name}"
                        f" of arity {arity}")
                coerced_rows.append(coerce_row(row))
        except Exception:
            self._check_keys(coerced_rows)  # a duplicate before the bad row
            raise
        if not coerced_rows:
            return 0
        self._check_keys(coerced_rows)
        self._append(coerced_rows)
        self.statistics.invalidate()
        return len(coerced_rows)

    def _check_keys(self, rows: list[Row]) -> None:
        """Raise :class:`ConstraintError` on the first of the coerced
        *rows* whose primary key is stored (one :meth:`positions_of`
        lookup for all) or repeats an earlier one."""
        if not self.enforce_key or not rows:
            return
        key_of = self.row_key
        keys = list(map(key_of, rows))
        stored: set[tuple] = set()
        if len(self.rows):  # an empty table builds no by-key dict
            positions = self.positions_of(keys, self._key_positions)
            stored.update(map(key_of, self.rows.gather(positions)))
        seen: set[tuple] = set()
        for key in keys:
            if key in stored or key in seen:
                raise ConstraintError(
                    f"duplicate primary key {key!r} in table {self.name}")
            seen.add(key)

    def _append(self, rows: list[Row]) -> None:
        """Append coerced *rows* to the store and every index; the
        by-key position cache, when held, is patched, not dropped."""
        start = len(self.rows)
        self.rows.extend(rows)
        if self._positions_cache is not None:
            wanted, mapping = self._positions_cache
            for position, row in enumerate(rows, start):
                key = tuple(row[i] for i in wanted)
                bucket = mapping.get(key)
                if bucket is None:
                    mapping[key] = [position]
                else:
                    bucket.append(position)
        for index in self.indexes.values():
            index.bulk_load(rows)
            self.incremental_index_ops += len(rows)

    def insert_relation(self, relation: Relation) -> int:
        """Append all rows of *relation* (schemas must be arity-compatible).

        A batch-backed relation (:meth:`_stored_vectors`) goes into
        columnar storage as vectors (``ColumnStore.append_vectors``) — no
        row tuples — when the table is empty or holds typed views of the
        same dtypes.
        """
        if relation.schema.arity != self.schema.arity:
            raise SchemaError(
                f"cannot insert arity-{relation.schema.arity} relation"
                f" into arity-{self.schema.arity} table {self.name}")
        vectors = self._stored_vectors(relation.batch)
        if vectors is None or not self.rows.append_vectors(vectors):
            return self.insert_many(relation.rows)
        self._positions_cache = None
        self.statistics.invalidate()
        return len(relation)

    def load(self, contents: Relation | list) -> int:
        """Fill this empty table with *contents* — a relation, or a list
        of rows — as :meth:`insert_many` of its rows would, without row
        tuples on columnar storage: :meth:`_load_vectors` turns each
        column into one typed vector of its stored type, once, and the
        store holds them in its vector form (``assign_vectors``).
        Everything the vectors cannot hold goes through
        :meth:`insert_many`, errors included."""
        vectors = self._load_vectors(contents)
        if vectors is None:
            return self.insert_many(contents.rows
                                    if isinstance(contents, Relation)
                                    else contents)
        self.rows.assign_vectors(vectors)
        self._positions_cache = None
        self.statistics.invalidate()
        return len(vectors[0].data)

    def _load_vectors(self, contents: Relation | list) -> list | None:
        """*contents*' columns in stored form as plain typed vectors — a
        batch-backed relation's own arrays, else one
        :func:`~repro.relational.physical.blocks.exact_array` per column
        of the rows — or None, for the row path: unless the table is
        columnar, empty and unindexed, and the contents are non-empty
        rows of its arity; for a column holding NULL, bool, TEXT, NaN, an
        int beside a float or an int outside int64, or one whose cast is
        not exact (:meth:`_stored_form`); and for a primary key that
        repeats or whose columns do not pack (one ``np.unique`` over
        :func:`~repro.relational.physical.blocks.pack_keys`)."""
        if self.storage != "columnar" or len(self.rows) or self.indexes \
                or not len(contents):
            return None
        arity = self.schema.arity
        batch = contents.batch if isinstance(contents, Relation) else None
        if batch is not None:
            vectors = [batch.array(j) for j in range(arity)]
        else:
            rows = contents.rows if isinstance(contents, Relation) \
                else contents
            if set(map(len, rows)) != {arity}:
                return None
            vectors = list(map(exact_array, zip(*rows)))
        if any(vector is None or vector.ints is not None
               for vector in vectors):
            return None
        vectors = self._stored_form(vectors.__getitem__)
        if vectors is None or not self.enforce_key:
            return vectors
        packed = pack_keys([vectors[i] for i in self._key_positions])
        if packed is None or not all_distinct(ArrayVector(packed[0])):
            return None
        return vectors

    def truncate(self) -> None:
        """Remove all rows (the TRUNCATE TABLE of Algorithm 1's loop)."""
        self.rows.clear()
        for index in self.indexes.values():
            index.clear()
        self._positions_cache = None
        self.statistics.invalidate()

    def delete_where(self, predicate: Callable[[Row], bool]) -> int:
        """Delete rows matching *predicate*; returns the count removed."""
        kept = [row for row in self.rows if not predicate(row)]
        removed = len(self.rows) - len(kept)
        if removed:
            self.rows.assign(kept)
            self._rebuild_auxiliary()
        return removed

    def delete_by_key(self, keys: Iterable[Sequence[Any]],
                      key_columns: Sequence[str]) -> int:
        """Delete every row whose *key_columns* value is in *keys*.

        The rows are found by :meth:`positions_of` over the coerced
        probes.  Storage-level removal goes through
        ``rows.delete_positions`` (new survivor vectors in the columnar
        store's vector form); indexes are maintained
        incrementally, with the usual half-table rebuild fallback.
        Returns the number of rows removed."""
        keys = list(keys)
        if not keys:
            return 0
        target_positions = tuple(self.schema.index_of(k)
                                 for k in key_columns)
        key_types = tuple(self.schema.columns[i].sql_type
                          for i in target_positions)
        probes = [tuple(coerce(v, t) for v, t in zip(
                      key if isinstance(key, (tuple, list)) else (key,),
                      key_types))
                  for key in keys]
        positions = self.positions_of(probes, target_positions)
        if not positions:
            return 0
        removed_rows = self.rows.gather(positions) if self.indexes else ()
        self.rows.delete_positions(positions)
        if self.indexes:
            if 2 * len(positions) > len(self.rows):
                self._rebuild_indexes()
            else:
                for index in self.indexes.values():
                    for row in removed_rows:
                        index.delete(row)
                        self.incremental_index_ops += 1
        # Surviving row positions shift left, so the by-key position
        # cache cannot be patched in place.
        self._positions_cache = None
        self.statistics.invalidate()
        return len(positions)

    def replace_contents(self, relation: Relation) -> None:
        """Swap in entirely new contents (the drop/alter strategy's core) —
        as vectors when :meth:`_stored_vectors` has them."""
        if relation.schema.arity != self.schema.arity:
            raise SchemaError(
                f"cannot replace arity-{self.schema.arity} table {self.name}"
                f" with arity-{relation.schema.arity} contents")
        vectors = self._stored_vectors(relation.batch)
        if vectors is not None:
            self.rows.assign_vectors(vectors)
        else:
            coerce_row = self._coerce_row
            self.rows.assign([coerce_row(row) for row in relation.rows])
        self._rebuild_auxiliary()

    def assign_vectors(self, vectors: Sequence) -> None:
        """Swap in new contents given as one plain typed vector per column,
        in stored form, on a columnar table with no key constraint or
        index to maintain (what :meth:`_stored_vectors` requires)."""
        self.rows.assign_vectors(vectors)
        self._rebuild_auxiliary()

    def _stored_vectors(self, batch) -> list | None:
        """The column *batch*'s columns in stored form as typed vectors —
        what coercing its rows would store, cast per column
        (:func:`~repro.relational.physical.blocks.cast_exact`) — or None
        unless the table is columnar with no key constraint or secondary
        index to maintain, there is a non-empty batch, and every column is
        INTEGER or DOUBLE with an exact cast."""
        if batch is None or self.storage != "columnar" or self.enforce_key \
                or self.indexes or not batch.length:
            return None
        return self._stored_form(batch.array)

    def _stored_form(self, vector_of: Callable[[int], Any]) -> list | None:
        """Column *j*'s typed vector ``vector_of(j)``, for each column,
        cast to its stored type
        (:func:`~repro.relational.physical.blocks.cast_exact`) — or None
        unless every column is INTEGER or DOUBLE with a vector whose cast
        is exact.  No vector is asked for past the first column that
        fails."""
        stored = []
        for j, column in enumerate(self.schema.columns):
            if column.sql_type not in (SqlType.INTEGER, SqlType.DOUBLE):
                return None
            vector = vector_of(j)
            if vector is None:
                return None
            vector = cast_exact(vector, column.sql_type is SqlType.INTEGER)
            if vector is None:
                return None
            stored.append(vector)
        return stored

    def update_from(self, source: Relation,
                    key_columns: Sequence[str]) -> int:
        """PostgreSQL-style ``UPDATE ... FROM``: overwrite matching rows only.

        Unlike MERGE it does not insert unmatched source rows and does not
        police duplicate source keys (last match wins), which is exactly the
        behavioural difference the paper calls out in Exp-1.
        """
        target_positions = [self.schema.index_of(k) for k in key_columns]
        source_positions = [source.schema.index_of(k) for k in key_columns]
        replacement: dict[tuple, Row] = {}
        for row in source.rows:
            key = tuple(row[i] for i in source_positions)
            replacement[key] = tuple(coerce(v, c.sql_type)
                                     for v, c in zip(row, self.schema.columns))
        updated = 0
        touched: list[tuple[Row, Row]] = []
        for pos, row in enumerate(self.rows):
            key = tuple(row[i] for i in target_positions)
            if key in replacement:
                touched.append((row, replacement[key]))
                self.rows[pos] = replacement[key]
                updated += 1
        if updated:
            self.rows_written(touched, ())
        return updated

    # -- indexes & statistics ----------------------------------------------------

    def create_index(self, index_name: str, columns: Sequence[str],
                     kind: str = "btree") -> Index:
        if index_name in self.indexes:
            raise CatalogError(f"index {index_name!r} already exists on {self.name}")
        positions = [self.schema.index_of(c) for c in columns]
        index = make_index(kind, index_name, positions)
        index.bulk_load(self.rows)
        self.indexes[index_name] = index
        return index

    def drop_index(self, index_name: str) -> None:
        if index_name not in self.indexes:
            raise CatalogError(f"no index {index_name!r} on {self.name}")
        del self.indexes[index_name]

    def index_on(self, columns: Sequence[str]) -> Index | None:
        """An index whose key is exactly *columns* (order-sensitive), if any."""
        positions = tuple(self.schema.index_of(c) for c in columns)
        for index in self.indexes.values():
            if index.key_positions == positions:
                return index
        return None

    def analyze(self) -> None:
        """Refresh planner statistics (ANALYZE) — from the columnar
        store's typed vectors when it is in the vector form
        (:meth:`TableStatistics.refresh_from_vectors`), else from the
        rows.  Both give the same statistics."""
        if self.storage == "columnar":
            vectors = self.rows.vectors()
            if vectors is not None and \
                    self.statistics.refresh_from_vectors(self.schema, vectors):
                return
        self.statistics.refresh(self.snapshot())

    # -- incremental union-by-update ---------------------------------------------

    def positions_of(self, probes: Sequence[tuple],
                     target_positions: Sequence[int]) -> list[int]:
        """Ascending positions of the rows whose value in the columns at
        *target_positions* is one of the coerced *probes* — the one key
        lookup behind :meth:`delete_by_key`, the key check of
        :meth:`insert_many` and the streaming ``ES`` patch.  On columnar
        storage it probes the store's key index (:meth:`_indexed_positions`);
        else — row storage, a TEXT, BOOLEAN, NULL or NaN key column, int
        keys that do not pack, a NULL probe — the positions-by-key dict.
        Both find the same positions."""
        if not probes:
            return []
        if self.storage == "columnar":
            positions = self._indexed_positions(probes,
                                                tuple(target_positions))
            if positions is not None:
                return positions
        mapping = self.positions_by_key(target_positions)
        found: set[int] = set()
        for probe in probes:
            found.update(mapping.get(probe, ()))
        return sorted(found)

    def _indexed_positions(self, probes: Sequence[tuple],
                           columns: tuple[int, ...]) -> list[int] | None:
        """:meth:`positions_of` on a columnar store: the int64 key columns
        probe the store's key index (``"csr"`` for one dense column, else
        ``"sorted"``), float64 ones are checked on the candidates (all
        rows without an int column).  None, for the dict, unless every key
        column is a plain int64 or float64 vector, every probe value an
        ``int`` or a ``float`` as its column is, and the int columns pack.
        A probe of the wrong width, an int outside int64 or a NaN is
        dropped: it equals no stored key."""
        store = self.rows
        vectors = [store.array(j) for j in columns]
        if not vectors or any(vector is None or vector.ints is not None
                              for vector in vectors):
            return None
        kinds = [int if vector.data.dtype == np.int64 else float
                 for vector in vectors]
        wanted = []
        for probe in probes:
            if len(probe) != len(kinds):
                continue
            if any(type(value) is not kind
                   for value, kind in zip(probe, kinds)):
                return None
            if all(value == value if kind is float
                   else _INT64_MIN <= value <= _INT64_MAX
                   for value, kind in zip(probe, kinds)):
                wanted.append(probe)
        if not wanted:
            return []
        ints = [i for i, kind in enumerate(kinds) if kind is int]
        if not ints:
            found = np.arange(len(store))  # every row is a candidate
        else:
            keys = tuple(columns[i] for i in ints)
            index = store.join_index(keys, "csr")[0] if len(ints) == 1 \
                else None
            if index is None:
                index = store.join_index(keys, "sorted")[0]
                if index is None:
                    return None
            found = index.positions([ArrayVector(np.array(
                [probe[i] for probe in wanted], dtype=np.int64)) for i in ints])
            if len(ints) == len(kinds):
                return found.tolist()
        wanted = set(wanted)
        held = zip(*(vector.data[found].tolist() for vector in vectors))
        return [pos for pos, key in zip(found.tolist(), held)
                if key in wanted]

    def positions_by_key(self, target_positions: Sequence[int]
                         ) -> dict[tuple, list[int]]:
        """Key value → row positions, cached across calls: row storage's
        lookup, a columnar one's where its key index declines
        (:meth:`positions_of`), and :meth:`apply_delta_by_key`'s.  The
        cache survives appends (:meth:`_append` patches it) and is dropped
        by any other row mutation."""
        wanted = tuple(target_positions)
        if self._positions_cache is not None \
                and self._positions_cache[0] == wanted:
            return self._positions_cache[1]
        mapping: dict[tuple, list[int]] = {}
        for pos, row in enumerate(self.rows):
            key = tuple(row[i] for i in wanted)
            bucket = mapping.get(key)
            if bucket is None:
                mapping[key] = [pos]
            else:
                bucket.append(pos)
        self._positions_cache = (wanted, mapping)
        return mapping

    def apply_delta_by_key(self, delta: Relation,
                           key_columns: Sequence[str]) -> tuple[int, int]:
        """In-place ``self ⊎ delta`` on *key_columns* (last delta row wins
        per key; unmatched delta rows are appended in delta order).

        Produces the same contents, in the same row order, as rebuilding
        via the full-outer-join merge, but touches only the delta's rows:
        matched rows are overwritten in place with incremental index
        delete/insert, unmatched rows are appended.  Returns
        ``(replaced, appended)`` row counts.
        """
        if delta.schema.arity != self.schema.arity:
            raise SchemaError(
                f"cannot merge arity-{delta.schema.arity} delta into"
                f" arity-{self.schema.arity} table {self.name}")
        target_positions = tuple(self.schema.index_of(k) for k in key_columns)
        delta_positions = [delta.schema.index_of(k) for k in key_columns]
        mapping = self.positions_by_key(target_positions)
        coerce_row = self._coerce_row
        ordered: list[tuple[tuple, Row]] = []
        replacement: dict[tuple, Row] = {}
        for row in delta.rows:
            key = tuple(row[i] for i in delta_positions)
            coerced = coerce_row(row)
            ordered.append((key, coerced))
            replacement[key] = coerced  # last occurrence wins
        replaced = 0
        seen_matched: set[tuple] = set()
        for key, new_row in replacement.items():
            positions = mapping.get(key)
            if not positions:
                continue
            seen_matched.add(key)
            for pos in positions:
                old_row = self.rows[pos]
                if old_row == new_row:
                    continue
                for index in self.indexes.values():
                    index.delete(old_row)
                    index.insert(new_row)
                    self.incremental_index_ops += 2
                self.rows[pos] = new_row
                replaced += 1
        fresh = [coerced for key, coerced in ordered
                 if key not in seen_matched]
        self._append(fresh)
        self.statistics.invalidate()
        return replaced, len(fresh)

    def merge_delta_rebuild(self, delta: Relation,
                            key_columns: Sequence[str]) -> tuple[int, int]:
        """One-pass ``self ⊎ delta`` rebuild for table-sized deltas.

        Same contents and row order as materialising the full-outer-join
        merge and calling :meth:`replace_contents`, but surviving rows are
        reused as-is (they are already coerced) and the delta is coerced
        exactly once — one pass over the table instead of three.  Returns
        ``(replaced, appended)`` where *replaced* counts matched rows whose
        value actually changed, matching :meth:`apply_delta_by_key`.
        """
        if delta.schema.arity != self.schema.arity:
            raise SchemaError(
                f"cannot merge arity-{delta.schema.arity} delta into"
                f" arity-{self.schema.arity} table {self.name}")
        if self.storage == "columnar" and len(key_columns) == 1:
            merged = self._merge_delta_arrays(delta, key_columns[0])
            if merged is not None:
                return merged
        target_key = itemgetter(*(self.schema.index_of(k)
                                  for k in key_columns))
        delta_key = itemgetter(*(delta.schema.index_of(k)
                                 for k in key_columns))
        coerce_row = self._coerce_row
        coerced = [coerce_row(row) for row in delta.rows]
        replacement = {delta_key(row): row for row in coerced}
        out: list[Row] = []
        matched: set = set()
        replaced = 0
        get = replacement.get
        for row in self.rows:
            key = target_key(row)
            new = get(key)
            if new is None:
                out.append(row)
            else:
                matched.add(key)
                if new != row:
                    replaced += 1
                out.append(new)
        appended = len(out)
        out.extend(row for row in coerced
                   if delta_key(row) not in matched)
        appended = len(out) - appended
        self.rows.assign(out)
        self._rebuild_auxiliary()
        return replaced, appended

    def _merge_delta_arrays(self, delta: Relation,
                            key_column: str) -> tuple[int, int] | None:
        """Array form of :meth:`merge_delta_rebuild` on columnar storage:
        the table's and the delta's typed vectors — a column batch's own
        arrays, or one :func:`~repro.relational.physical.blocks.exact_array`
        per column of a row-backed delta — merge by key position
        (:func:`~repro.relational.physical.blocks.merge_dense_key`) and
        the store takes the result as vectors.  Coercion is a dtype cast.
        Same contents, row order and counts as the row merge, which runs
        whenever this answers None: a key constraint or secondary index to
        maintain, a column that is not all int / all float (NULL, bool,
        text, NaN), a cast that is not exact, or keys that are not dense,
        distinct ints.  Declines before touching the table.  The slot map
        is the table's last merge's when that was made of the same two
        key vectors.
        """
        kpos = self.schema.index_of(key_column)
        if delta.schema.index_of(key_column) != kpos:
            return None
        batch = delta.batch
        new = self._stored_vectors(
            RowsColumns(delta.rows, delta.schema.arity) if batch is None
            else batch)
        if new is None:
            return None
        old = [self.rows.array(j) for j in range(self.schema.arity)]
        if any(before is None for before in old):
            return None
        merged = merge_dense_key(old, new, kpos, self._merge_plan)
        if merged is None:
            return None
        vectors, replaced, appended, self._merge_plan = merged
        self.assign_vectors(vectors)
        return replaced, appended

    # -- internals -----------------------------------------------------------------

    def rows_written(self, touched: Sequence[tuple[Row, Row]],
                     appended: Sequence[Row]) -> None:
        """Upkeep after *touched* ``(old, new)`` rows were overwritten and
        *appended* rows appended through ``self.rows`` directly (MERGE's
        row-level apply, ``UPDATE ... FROM``): the by-key cache goes,
        statistics go stale, and indexes are maintained incrementally,
        falling back to a full rebuild when the batch exceeds half the
        table."""
        self._positions_cache = None
        self.statistics.invalidate()
        if not self.indexes:
            return
        if 2 * (len(touched) + len(appended)) > len(self.rows):
            self._rebuild_indexes()
            return
        for index in self.indexes.values():
            for old_row, new_row in touched:
                if old_row == new_row:
                    continue
                index.delete(old_row)
                index.insert(new_row)
                self.incremental_index_ops += 2
            for row in appended:
                index.insert(row)
                self.incremental_index_ops += 1

    def _rebuild_indexes(self) -> None:
        if self.indexes:
            self.index_rebuilds += 1
        for index in self.indexes.values():
            index.clear()
            index.bulk_load(self.rows)

    def _rebuild_auxiliary(self) -> None:
        self._positions_cache = None
        self._rebuild_indexes()
        self.statistics.invalidate()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "temp table" if self.temporary else "table"
        return f"<{kind} {self.name} {self.schema.names} rows={len(self.rows)}>"
