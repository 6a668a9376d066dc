"""Union-by-update implementation strategies (the paper's Exp-1, Tables 4/5).

The paper evaluates four ways to realise ``R ⊎ S`` inside an RDBMS:

* ``merge``            — SQL MERGE: per-row matched/not-matched dispatch with
                         duplicate-source detection and constraint
                         revalidation (Oracle/DB2; slowest measured);
* ``update_from``      — PostgreSQL's ``UPDATE ... FROM``: in-place updates
                         plus an insert of the unmatched remainder;
* ``full_outer_join``  — a full outer join with ``coalesce``, rebuilding the
                         relation in one pass (the paper's pick);
* ``drop_alter``       — compute the new relation into a fresh table, DROP
                         the old one and ALTER/RENAME the new one in place.

All four produce identical contents; they differ in the work performed,
which is what the benchmark measures.  Each strategy here does the real
work its SQL counterpart implies — no artificial delays.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from .database import Database
from .errors import ConstraintError, ExecutionError
from .physical.blocks import all_distinct
from .relation import Relation
from .table import Table
from .types import coerce

#: Strategy names, in the order the paper's tables list them.
UNION_BY_UPDATE_STRATEGIES = ("merge", "update_from", "full_outer_join",
                              "drop_alter")


@dataclass
class UpdateCounts:
    """What one ``R ⊎ delta`` application did — byproducts each strategy
    already computes, surfaced for the fixpoint-introspection telemetry.

    ``inserted`` counts delta rows appended as new keys; ``overwritten``
    counts existing rows the strategy wrote.  The strategies legitimately
    disagree on no-op rows (MERGE writes an unchanged match, the
    full-outer-join variants skip it) — the counts report what each plan
    *does*, which is exactly the difference the paper's Exp-1 measures.
    """

    inserted: int = 0
    overwritten: int = 0
    #: Exact content-change verdict, when the strategy can prove one:
    #: True/False means "the table's contents did / did not change as a
    #: bag"; None means the strategy cannot tell (MERGE and UPDATE FROM
    #: write no-op matches, so their counts overstate real change) and
    #: the caller must compare snapshots itself.
    changed: bool | None = None


def consolidate_delta(delta: Relation,
                      key_columns: Sequence[str]) -> Relation:
    """Collapse duplicate-key delta rows so every strategy sees the same
    well-formed input.

    ``R ⊎ S`` is only defined when the delta carries one row per key.  The
    four strategies used to disagree on malformed deltas: MERGE raised
    (Oracle's ORA-30926), UPDATE..FROM applied an arbitrary row, and the
    full-outer-join/drop-alter paths appended *both* rows — corrupting the
    key invariant and, inside the recursive loop, preventing convergence
    (``after != snapshot`` stayed true until MAXRECURSION).  The defined
    semantics now match across all strategies and plan shapes:

    * exact duplicate rows (same key, same values — re-derivations along
      multiple paths) collapse silently to one;
    * *conflicting* rows (same key, different values) raise
      :class:`ConstraintError`, deterministically, regardless of the row
      order the chosen plan produced them in.

    A delta whose one key column holds no value twice returns untouched
    after one check (:func:`_keys_distinct`).  The fixpoint loop does not
    call this at all for a branch grouped on the key, whose keys are
    distinct by construction
    (:func:`~repro.relational.recursive.delta_keys_are_distinct`).
    """
    if not key_columns or len(delta) <= 1:
        return delta
    positions = [delta.schema.index_of(k) for k in key_columns]
    if len(positions) == 1 and _keys_distinct(delta, positions[0]):
        return delta
    seen: dict[tuple, tuple] = {}
    conflicts: dict[tuple, set[tuple]] = {}
    out = []
    for row in delta.rows:
        key = tuple(row[i] for i in positions)
        previous = seen.get(key)
        if previous is None:
            seen[key] = row
            out.append(row)
        elif previous != row:
            conflicts.setdefault(key, {previous}).add(row)
    if conflicts:
        # Report a plan-independent key and pair: the delta's row order
        # varies with the join order the planner picked, and the error
        # message must not.
        key = min(conflicts, key=repr)
        first, second = sorted(conflicts[key], key=repr)[:2]
        raise ConstraintError(
            f"union by update delta has conflicting rows for key"
            f" {key!r}: {first!r} vs {second!r}")
    if len(out) == len(delta):
        return delta
    return Relation(delta.schema, out)


def _keys_distinct(delta: Relation, position: int) -> bool:
    """True when the delta's one key column provably holds no value twice
    — on the typed key vector when the block pipeline handed the delta
    over as a column batch (its rows stay unbuilt), else in two C passes
    over the rows.  False sends the caller to its row loop, which tells
    duplicates from conflicts."""
    if delta.batch is not None:
        vector = delta.batch.array(position)
        if vector is not None:
            return all_distinct(vector)
    keys = list(map(itemgetter(position), delta.rows))
    return len(set(keys)) == len(keys)


def apply_union_by_update(database: Database, table: Table, delta: Relation,
                          key_columns: Sequence[str], strategy: str,
                          counts: UpdateCounts | None = None,
                          distinct_keys: bool = False) -> Table:
    """Apply ``table ⊎ delta`` on *key_columns* using *strategy*.

    Returns the table holding the result — a *different* object for the
    ``drop_alter`` strategy, which swaps a new table into the catalog.
    When *counts* is given, it is filled with the insert/overwrite totals.
    The delta is consolidated first (see :func:`consolidate_delta`), so
    every strategy computes the same result from the same input — unless
    the caller passes *distinct_keys*, its proof that no key occurs twice
    in the delta, which consolidation would then return untouched.
    """
    if counts is None:
        counts = UpdateCounts()
    if not distinct_keys:
        delta = consolidate_delta(delta, key_columns)
    if not key_columns:
        # Keyless union-by-update replaces the relation wholesale (the
        # paper's "without attributes" form).
        table.replace_contents(delta)
        counts.inserted = len(delta)
        return table
    if strategy == "merge":
        counts.inserted, counts.overwritten = \
            _merge(table, delta, key_columns)
    elif strategy == "update_from":
        counts.inserted, counts.overwritten = \
            _update_from(table, delta, key_columns)
    elif strategy == "full_outer_join":
        counts.inserted, counts.overwritten = \
            _full_outer_join(table, delta, key_columns)
        # Both full-outer-join merges count only rows whose value really
        # changed, so the counts double as an exact convergence verdict —
        # the fixpoint loop can skip its bag comparison of the table.
        counts.changed = bool(counts.inserted or counts.overwritten)
    elif strategy == "drop_alter":
        counts.inserted, counts.overwritten = \
            _drop_alter(database, table, delta, key_columns)
        return database.table(table.name)
    else:
        raise ExecutionError(f"unknown union-by-update strategy {strategy!r}")
    return table


def _merge(table: Table, delta: Relation,
           key_columns: Sequence[str]) -> tuple[int, int]:
    """SQL MERGE, executed the way the RDBMSs do.

    A MERGE plan is an outer join between target and source followed by a
    row-at-a-time apply: per source row it checks for a (unique) match,
    validates that the update keeps the target's key invariant, applies the
    update or insert in place, and emits a row-level change record.  That
    per-row tail — absent from the set-oriented ``full outer join`` and
    ``drop/alter`` strategies ("it essentially does join instead of real
    update") — is why the paper measures MERGE slowest.
    """
    target_positions = [table.schema.index_of(k) for k in key_columns]
    # Outer-join phase: match source keys against the target.
    by_key: dict[tuple, int] = {}
    for pos, row in enumerate(table.rows):
        key = tuple(row[i] for i in target_positions)
        if key in by_key:
            raise ConstraintError(
                f"MERGE target {table.name} violates key uniqueness"
                f" on {key!r}")
        by_key[key] = pos
    source_positions = [delta.schema.index_of(k) for k in key_columns]
    seen_source: set[tuple] = set()
    change_log: list[tuple[str, tuple, tuple | None]] = []
    for row in delta.rows:
        key = tuple(row[i] for i in source_positions)
        if key in seen_source:
            raise ConstraintError(f"MERGE source has duplicate key {key!r}")
        seen_source.add(key)
        coerced = tuple(coerce(v, c.sql_type)
                        for v, c in zip(row, table.schema.columns))
        new_key = tuple(coerced[table.schema.index_of(k)]
                        for k in key_columns)
        target_pos = by_key.get(key)
        if target_pos is None:
            # WHEN NOT MATCHED: validate the insert keeps keys unique.
            if new_key in by_key:
                raise ConstraintError(
                    f"MERGE insert violates key uniqueness on {new_key!r}")
            by_key[new_key] = len(table.rows)
            table.rows.append(coerced)
            change_log.append(("insert", coerced, None))
        else:
            old = table.rows[target_pos]
            if new_key != key and new_key in by_key:
                raise ConstraintError(
                    f"MERGE update violates key uniqueness on {new_key!r}")
            table.rows[target_pos] = coerced
            change_log.append(("update", coerced, old))
    # Row-level apply tail: maintain indexes from the change records
    # instead of rebuilding everything each call.
    updates = [(old, new) for op, new, old in change_log if op == "update"]
    inserts = [new for op, new, old in change_log if op == "insert"]
    table.rows_written(updates, inserts)
    return len(inserts), len(updates)


def _update_from(table: Table, delta: Relation,
                 key_columns: Sequence[str]) -> tuple[int, int]:
    """``UPDATE ... FROM`` for the matches, then insert the remainder."""
    updated = table.update_from(delta, key_columns)
    target_positions = [table.schema.index_of(k) for k in key_columns]
    delta_positions = [delta.schema.index_of(k) for k in key_columns]
    existing = {tuple(row[i] for i in target_positions) for row in table.rows}
    remainder: list[tuple] = []
    for row in delta.rows:
        key = tuple(row[i] for i in delta_positions)
        if key not in existing:
            existing.add(key)
            remainder.append(row)
    if remainder:
        table.insert_many(remainder)
    return len(remainder), updated


def _union_by_update_relation(current: Relation, delta: Relation,
                              key_columns: Sequence[str]
                              ) -> tuple[Relation, int, int]:
    """The full-outer-join + coalesce evaluation of ``current ⊎ delta``.

    Returns ``(merged, inserted, overwritten)`` — *overwritten* counting
    matched rows whose value actually changed."""
    current_positions = [current.schema.index_of(k) for k in key_columns]
    delta_positions = [delta.schema.index_of(k) for k in key_columns]
    replacement: dict[tuple, tuple] = {}
    for row in delta.rows:
        replacement[tuple(row[i] for i in delta_positions)] = row
    out: list[tuple] = []
    matched: set[tuple] = set()
    overwritten = 0
    for row in current.rows:
        key = tuple(row[i] for i in current_positions)
        new = replacement.get(key)
        if new is None:
            out.append(row)
        else:
            matched.add(key)
            if new != row:
                overwritten += 1
            out.append(new)
    inserted = 0
    for row in delta.rows:
        key = tuple(row[i] for i in delta_positions)
        if key not in matched:
            inserted += 1
            out.append(row)
    return Relation(current.schema, out), inserted, overwritten


def _full_outer_join(table: Table, delta: Relation,
                     key_columns: Sequence[str]) -> tuple[int, int]:
    """Full-outer-join semantics, applied incrementally.

    When the delta is small relative to the table (the recursive loop's
    steady state), touched rows are overwritten in place with incremental
    index delete/insert — O(|delta|) maintenance.  A delta of more than
    half the table falls back to the one-pass rebuild, which is cheaper
    than row-at-a-time churn at that size.
    """
    if 2 * len(delta) > len(table.rows):
        replaced, appended = table.merge_delta_rebuild(delta, key_columns)
    else:
        replaced, appended = table.apply_delta_by_key(delta, key_columns)
    return appended, replaced


def _drop_alter(database: Database, table: Table, delta: Relation,
                key_columns: Sequence[str]) -> tuple[int, int]:
    """Compute into a scratch table, DROP the old, RENAME the new."""
    merged, inserted, overwritten = _union_by_update_relation(
        table.snapshot(), delta, key_columns)
    scratch_name = f"__swap_{table.name}"
    scratch = database.create_temp_table(scratch_name, table.schema,
                                         enforce_key=table.enforce_key,
                                         replace=True)
    scratch.rows.assign([tuple(coerce(v, c.sql_type)
                               for v, c in zip(row, table.schema.columns))
                         for row in merged.rows])
    # Re-create the old table's indexes on the replacement, as the paper's
    # drop/alter variant must.
    for index_name, index in table.indexes.items():
        columns = [table.schema.columns[i].name for i in index.key_positions]
        kind = "hash" if type(index).__name__ == "HashIndex" else "btree"
        scratch.create_index(index_name, columns, kind)
    original_name = table.name
    database.drop_table(original_name)
    database.rename_table(scratch_name, original_name)
    return inserted, overwritten


def union_by_update_sql(target: str, source: str, key: str,
                        value_columns: Sequence[str], strategy: str) -> str:
    """Render the SQL text the paper shows for each strategy (Section 6).

    This is documentation-grade output used by ``examples/show_sql.py`` and
    the formatter tests; execution goes through
    :func:`apply_union_by_update`.
    """
    values = list(value_columns)
    if strategy == "merge":
        sets = ", ".join(f"{target}.{c} = {source}.{c}" for c in values)
        cols = ", ".join([f"{target}.{key}"] + [f"{target}.{c}" for c in values])
        vals = ", ".join([f"{source}.{key}"] + [f"{source}.{c}" for c in values])
        return (f"MERGE INTO {target} USING {source} ON"
                f" ({target}.{key} = {source}.{key})\n"
                f"WHEN MATCHED THEN UPDATE SET {sets}\n"
                f"WHEN NOT MATCHED THEN INSERT ({cols}) VALUES ({vals});")
    if strategy == "update_from":
        sets = ", ".join(f"{c} = {source}.{c}" for c in values)
        return (f"UPDATE {target} SET {sets} FROM {source}"
                f" WHERE {target}.{key} = {source}.{key};")
    if strategy == "full_outer_join":
        coalesced = ",\n       ".join(
            f"coalesce({source}.{c}, {target}.{c}) AS {c}" for c in values)
        return (f"SELECT coalesce({target}.{key}, {source}.{key}) AS {key},\n"
                f"       {coalesced}\n"
                f"FROM {target} FULL OUTER JOIN {source}"
                f" ON {target}.{key} = {source}.{key};")
    if strategy == "drop_alter":
        return (f"DROP TABLE {target};\n"
                f"ALTER TABLE {source} RENAME TO {target};")
    raise ExecutionError(f"unknown union-by-update strategy {strategy!r}")
