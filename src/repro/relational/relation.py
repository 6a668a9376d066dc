"""The :class:`Relation`: an immutable bag of tuples with a schema.

This is the engine's logical data container and also the substrate on which
the paper's four operations (:mod:`repro.core.operators`) are defined.  It
implements the six basic relational-algebra operations — selection (σ),
projection (Π), union (∪), set difference (−), Cartesian product (×) and
rename (ρ) — plus group-by & aggregation, θ-join, semi-join and the outer
joins the paper's SQL translations rely on.

Relations are *bags* by default, matching SQL semantics; ``union``,
``difference`` and ``intersect`` apply set semantics like their SQL
namesakes, while ``union_all`` keeps duplicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import ExecutionError, SchemaError
from .expressions import (
    AGGREGATE_FUNCTIONS,
    BoundColumn,
    Expression,
    bind,
    compile_expression,
)
from .schema import Column, Schema
from .types import SqlType, infer_type

Row = tuple
Predicate = Callable[[Row], Any]


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate to compute in a group-by.

    ``function`` is one of sum/min/max/count/avg; ``argument`` is the bound
    expression evaluated per input row (``None`` means ``count(*)``);
    ``alias`` names the output column.
    """

    function: str
    argument: Expression | None
    alias: str

    def __post_init__(self) -> None:
        if self.function.lower() not in AGGREGATE_FUNCTIONS:
            raise SchemaError(f"unknown aggregate function {self.function!r}")


def require_numeric(function: str, value: Any) -> None:
    """SUM/AVG are defined over numeric arguments only.

    Both executors call this on the same boundary (the first non-NULL
    value a group accumulates), so a ``sum`` over a TEXT column raises the
    same :class:`ExecutionError` everywhere instead of one path raising a
    bare ``TypeError`` while the other silently concatenates strings.
    """
    if value is not None and not isinstance(value, (int, float)):
        raise ExecutionError(
            f"{function.lower()}() requires numeric values,"
            f" got {type(value).__name__}")


def _finish_aggregate(function: str, values: list[Any]) -> Any:
    """Fold the non-NULL *values* of a group with *function* (SQL semantics)."""
    function = function.lower()
    if function == "count":
        return len(values)
    if not values:
        return None
    if function in ("sum", "avg"):
        for value in values:
            require_numeric(function, value)
        # Seeded with the first value, as every accumulating loop is:
        # ``0 + -0.0`` would lose the zero's sign.
        total = sum(values[1:], values[0])
        return total if function == "sum" else total / len(values)
    if function in ("min", "max"):
        # NaN sorts above every number, as in PostgreSQL, whatever the row
        # order: max is NaN if any value is, min only if every value is.
        numbers = [value for value in values if value == value]
        if not numbers or (function == "max" and len(numbers) < len(values)):
            return next(value for value in values if value != value)
        return (min if function == "min" else max)(numbers)
    raise ExecutionError(f"unknown aggregate {function!r}")


class Relation:
    """An immutable schema-carrying bag of tuples.

    A relation the batch executor produced may be backed by the column
    batch its plan root ended in (:meth:`from_batch`): ``len()`` answers
    from the batch and the row tuples are built on the first read of
    :attr:`rows`, once — a fixpoint iteration that hands its result to
    the next as typed vectors never builds them at all.
    """

    __slots__ = ("schema", "_rows", "batch")

    def __init__(self, schema: Schema, rows: Iterable[Row] = ()):
        self.schema = schema
        #: the backing column batch; None for a relation built from rows
        self.batch = None
        materialized = []
        arity = schema.arity
        for row in rows:
            row = tuple(row)
            if len(row) != arity:
                raise SchemaError(
                    f"row of arity {len(row)} does not fit schema of arity {arity}")
            materialized.append(row)
        self._rows: tuple[Row, ...] | None = tuple(materialized)

    # -- construction ---------------------------------------------------------

    @staticmethod
    def from_pairs(column_names: Sequence[str], rows: Iterable[Row],
                   primary_key: Sequence[str] = ()) -> "Relation":
        """Build a relation inferring column types from the first row."""
        rows = [tuple(r) for r in rows]
        if rows:
            if len(rows[0]) != len(column_names):
                raise SchemaError(
                    f"row of arity {len(rows[0])} does not fit"
                    f" {len(column_names)} columns")
            types = [infer_type(v) if v is not None else SqlType.DOUBLE
                     for v in rows[0]]
        else:
            types = [SqlType.DOUBLE] * len(column_names)
        cols = tuple(Column(n, t) for n, t in zip(column_names, types))
        return Relation(Schema(cols, tuple(primary_key)), rows)

    @staticmethod
    def empty(schema: Schema) -> "Relation":
        return Relation(schema, ())

    @classmethod
    def _make(cls, schema: Schema, rows: "tuple[Row, ...] | None",
              batch) -> "Relation":
        relation = cls.__new__(cls)
        relation.schema = schema
        relation._rows = rows
        relation.batch = batch
        return relation

    @classmethod
    def from_trusted_rows(cls, schema: Schema,
                          rows: Sequence[Row]) -> "Relation":
        """Construct without per-row validation.

        The batch executor's kernels emit lists of already-correct tuples;
        re-walking them in ``__init__`` would cost a Python-level loop per
        row.  Callers guarantee every element is a tuple of the right arity.
        """
        return cls._make(schema, tuple(rows), None)

    @classmethod
    def from_batch(cls, schema: Schema, batch) -> "Relation":
        """A relation over a column batch of *schema*'s arity — ``length``,
        ``column(j)``, ``array(j)``, ``rows()``, as in
        :mod:`repro.relational.physical.blocks` — whose contents are
        final: every read sees the tuples ``batch.rows()`` yields."""
        return cls._make(schema, None, batch)

    @property
    def rows(self) -> tuple[Row, ...]:
        rows = self._rows
        if rows is None:
            rows = self._rows = tuple(self.batch.rows())
        return rows

    def replace_rows(self, rows: Iterable[Row]) -> "Relation":
        """Same schema, new rows."""
        return Relation(self.schema, rows)

    # -- protocol -------------------------------------------------------------

    def __len__(self) -> int:
        if self._rows is None:
            return self.batch.length
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __getstate__(self):
        return self.schema, self.rows

    def __setstate__(self, state) -> None:
        self.schema, self._rows = state
        self.batch = None

    def __eq__(self, other: object) -> bool:
        """Bag equality: same schema names and same multiset of rows."""
        if not isinstance(other, Relation):
            return NotImplemented
        if self.schema.names != other.schema.names:
            return False
        if len(self) != len(other):
            return False
        if self.batch is not None and other.batch is not None:
            # Two batch-backed relations (a fixpoint's snapshots) compare
            # on their typed columns when they have them.
            from .physical.blocks import same_bag

            verdict = same_bag(self.batch, other.batch, self.schema.arity)
            if verdict is not None:
                return verdict
        if self.rows == other.rows:
            return True
        from collections import Counter

        return Counter(self.rows) == Counter(other.rows)

    def __hash__(self) -> int:  # relations are mutable-free; hash by content
        return hash((self.schema.names, frozenset(self.rows)))

    def as_set(self) -> frozenset[Row]:
        return frozenset(self.rows)

    def to_dict(self, key_index: int = 0, value_index: int = 1) -> dict[Any, Any]:
        """View a two-ish-column relation as a mapping (used by vector code)."""
        return {row[key_index]: row[value_index] for row in self.rows}

    # -- the six basic operations --------------------------------------------

    def select(self, predicate: Expression | Predicate) -> "Relation":
        """Selection σ.  Accepts a bound/unbound expression or a callable."""
        if isinstance(predicate, Expression):
            evaluate = compile_expression(bind(predicate, self.schema))
            keep = lambda row: evaluate(row) is True  # noqa: E731
        else:
            keep = lambda row: bool(predicate(row))  # noqa: E731
        return Relation(self.schema, (r for r in self.rows if keep(r)))

    def project(self, items: Sequence[str | tuple[Expression, str]]) -> "Relation":
        """Projection Π, generalised to computed columns.

        Each item is either a column name or an ``(expression, alias)`` pair.
        """
        evaluators: list[Callable[[Row], Any]] = []
        out_cols: list[Column] = []
        for item in items:
            if isinstance(item, str):
                qualifier, name = (item.split(".", 1) + [None])[:2] if "." in item \
                    else (None, item)
                index = self.schema.index_of(name, qualifier)
                source = self.schema.columns[index]
                evaluators.append(lambda row, i=index: row[i])
                out_cols.append(Column(source.name, source.sql_type))
            else:
                expr, alias = item
                bound = bind(expr, self.schema)
                evaluators.append(compile_expression(bound))
                if isinstance(bound, BoundColumn):
                    sql_type = self.schema.columns[bound.index].sql_type
                else:
                    sql_type = SqlType.DOUBLE
                out_cols.append(Column(alias, sql_type))
        schema = Schema(tuple(out_cols))
        return Relation(schema, (tuple(e(row) for e in evaluators)
                                 for row in self.rows))

    def union(self, other: "Relation") -> "Relation":
        """Set union ∪ (eliminates duplicates, like SQL UNION)."""
        self._check_compatible(other)
        seen: set[Row] = set()
        out: list[Row] = []
        for row in (*self.rows, *other.rows):
            if row not in seen:
                seen.add(row)
                out.append(row)
        return Relation(self.schema.without_key(), out)

    def union_all(self, other: "Relation") -> "Relation":
        """Bag union (SQL UNION ALL)."""
        self._check_compatible(other)
        return Relation.from_trusted_rows(self.schema.without_key(),
                                          (*self.rows, *other.rows))

    def difference(self, other: "Relation") -> "Relation":
        """Set difference − (SQL EXCEPT)."""
        self._check_compatible(other)
        gone = set(other.rows)
        seen: set[Row] = set()
        out = []
        for row in self.rows:
            if row not in gone and row not in seen:
                seen.add(row)
                out.append(row)
        return Relation(self.schema.without_key(), out)

    def intersect(self, other: "Relation") -> "Relation":
        """Set intersection (SQL INTERSECT)."""
        self._check_compatible(other)
        kept = set(other.rows)
        seen: set[Row] = set()
        out = []
        for row in self.rows:
            if row in kept and row not in seen:
                seen.add(row)
                out.append(row)
        return Relation(self.schema.without_key(), out)

    def cross(self, other: "Relation") -> "Relation":
        """Cartesian product ×."""
        schema = self.schema.concat(other.schema)
        return Relation(schema, (left + right
                                 for left in self.rows for right in other.rows))

    def rename(self, alias: str, column_names: Sequence[str] | None = None) -> "Relation":
        """Rename ρ: requalify as *alias*, optionally renaming columns."""
        schema = self.schema.rename_relation(alias)
        if column_names is not None:
            schema = schema.rename_columns(column_names).rename_relation(alias)
        return Relation(schema, self.rows)

    def rename_columns(self, column_names: Sequence[str]) -> "Relation":
        return self.with_schema(self.schema.rename_columns(column_names))

    def with_schema(self, schema: Schema) -> "Relation":
        """The same rows (or batch, unread) under *schema*, a schema of
        the same arity and column types."""
        return Relation._make(schema, self._rows, self.batch)

    # -- derived operations ----------------------------------------------------

    def distinct(self) -> "Relation":
        seen: set[Row] = set()
        out = []
        for row in self.rows:
            if row not in seen:
                seen.add(row)
                out.append(row)
        return Relation(self.schema, out)

    def theta_join(self, other: "Relation",
                   condition: Expression | Callable[[Row], Any]) -> "Relation":
        """θ-join; hash-accelerated when the condition is a conjunction of
        equalities between the two sides, else a filtered Cartesian product."""
        equi = _extract_equi_keys(condition, self.schema, other.schema) \
            if isinstance(condition, Expression) else None
        if equi:
            return self._hash_join(other, equi)
        product = self.cross(other)
        return product.select(condition)

    def equi_join(self, other: "Relation",
                  left_cols: Sequence[str], right_cols: Sequence[str]) -> "Relation":
        """Join on positional column-name pairs (no expression machinery)."""
        left_idx = [self.schema.index_of(*_split(c)) for c in left_cols]
        right_idx = [other.schema.index_of(*_split(c)) for c in right_cols]
        return self._hash_join(other, list(zip(left_idx, right_idx)))

    def _hash_join(self, other: "Relation",
                   key_pairs: Sequence[tuple[int, int]]) -> "Relation":
        left_idx = [pair[0] for pair in key_pairs]
        right_idx = [pair[1] for pair in key_pairs]
        index: dict[tuple, list[Row]] = {}
        for row in other.rows:
            key = tuple(row[i] for i in right_idx)
            if any(v is None for v in key):
                continue
            index.setdefault(key, []).append(row)
        schema = self.schema.concat(other.schema)
        out: list[Row] = []
        for row in self.rows:
            key = tuple(row[i] for i in left_idx)
            if any(v is None for v in key):
                continue
            for match in index.get(key, ()):
                out.append(row + match)
        return Relation(schema, out)

    def semi_join(self, other: "Relation",
                  left_cols: Sequence[str], right_cols: Sequence[str]) -> "Relation":
        """Rows of self that match at least one row of other (⋉)."""
        left_idx = [self.schema.index_of(*_split(c)) for c in left_cols]
        right_idx = [other.schema.index_of(*_split(c)) for c in right_cols]
        keys = {tuple(row[i] for i in right_idx) for row in other.rows}
        return Relation(self.schema,
                        (row for row in self.rows
                         if tuple(row[i] for i in left_idx) in keys))

    def anti_join(self, other: "Relation",
                  left_cols: Sequence[str], right_cols: Sequence[str]) -> "Relation":
        """Rows of self that match no row of other (the paper's ⋉̄).

        Definitionally ``R − (R ⋉ S)``; implemented as a hash anti-join.
        """
        left_idx = [self.schema.index_of(*_split(c)) for c in left_cols]
        right_idx = [other.schema.index_of(*_split(c)) for c in right_cols]
        keys = {tuple(row[i] for i in right_idx) for row in other.rows}
        return Relation(self.schema,
                        (row for row in self.rows
                         if tuple(row[i] for i in left_idx) not in keys))

    def left_outer_join(self, other: "Relation",
                        left_cols: Sequence[str],
                        right_cols: Sequence[str]) -> "Relation":
        """Left outer join on column-name equality, NULL-padding the right."""
        left_idx = [self.schema.index_of(*_split(c)) for c in left_cols]
        right_idx = [other.schema.index_of(*_split(c)) for c in right_cols]
        index: dict[tuple, list[Row]] = {}
        for row in other.rows:
            key = tuple(row[i] for i in right_idx)
            index.setdefault(key, []).append(row)
        pad = (None,) * other.schema.arity
        schema = self.schema.concat(other.schema)
        out: list[Row] = []
        for row in self.rows:
            key = tuple(row[i] for i in left_idx)
            matches = index.get(key) if all(v is not None for v in key) else None
            if matches:
                out.extend(row + match for match in matches)
            else:
                out.append(row + pad)
        return Relation(schema, out)

    def full_outer_join(self, other: "Relation",
                        left_cols: Sequence[str],
                        right_cols: Sequence[str]) -> "Relation":
        """Full outer join on column-name equality, NULL-padding both sides."""
        left_idx = [self.schema.index_of(*_split(c)) for c in left_cols]
        right_idx = [other.schema.index_of(*_split(c)) for c in right_cols]
        index: dict[tuple, list[tuple[int, Row]]] = {}
        for pos, row in enumerate(other.rows):
            key = tuple(row[i] for i in right_idx)
            index.setdefault(key, []).append((pos, row))
        matched_right: set[int] = set()
        pad_right = (None,) * other.schema.arity
        pad_left = (None,) * self.schema.arity
        schema = self.schema.concat(other.schema)
        out: list[Row] = []
        for row in self.rows:
            key = tuple(row[i] for i in left_idx)
            matches = index.get(key) if all(v is not None for v in key) else None
            if matches:
                for pos, match in matches:
                    matched_right.add(pos)
                    out.append(row + match)
            else:
                out.append(row + pad_right)
        for pos, row in enumerate(other.rows):
            if pos not in matched_right:
                out.append(pad_left + row)
        return Relation(schema, out)

    # -- group-by & aggregation -------------------------------------------------

    def group_by(self, keys: Sequence[str],
                 aggregates: Sequence[AggregateSpec]) -> "Relation":
        """Group-by & aggregation (the ``G`` operator of the paper).

        With an empty *keys* list this is a scalar aggregation producing one
        row (over an empty input, sum/min/max are NULL and count is 0, as in
        SQL).
        """
        key_idx = [self.schema.index_of(*_split(k)) for k in keys]
        arg_fns: list[Callable[[Row], Any] | None] = []
        for spec in aggregates:
            if spec.argument is None:
                arg_fns.append(None)
            else:
                arg_fns.append(compile_expression(
                    bind(spec.argument, self.schema)))
        groups: dict[tuple, list[list[Any]]] = {}
        order: list[tuple] = []
        for row in self.rows:
            key = tuple(row[i] for i in key_idx)
            bucket = groups.get(key)
            if bucket is None:
                bucket = [[] for _ in aggregates]
                groups[key] = bucket
                order.append(key)
            for slot, arg in zip(bucket, arg_fns):
                if arg is None:
                    slot.append(1)  # count(*)
                else:
                    value = arg(row)
                    if value is not None:
                        slot.append(value)
        if not keys and not groups:
            groups[()] = [[] for _ in aggregates]
            order.append(())
        out_cols = [Column(self.schema.columns[i].name,
                           self.schema.columns[i].sql_type) for i in key_idx]
        out_cols += [Column(spec.alias, SqlType.DOUBLE) for spec in aggregates]
        schema = Schema(tuple(out_cols))
        out_rows = []
        for key in order:
            bucket = groups[key]
            aggs = tuple(_finish_aggregate(spec.function, values)
                         for spec, values in zip(aggregates, bucket))
            out_rows.append(key + aggs)
        return Relation(schema, out_rows)

    # -- ordering / display -----------------------------------------------------

    def sort(self, keys: Sequence[str], descending: bool = False) -> "Relation":
        key_idx = [self.schema.index_of(*_split(k)) for k in keys]

        def sort_key(row: Row):
            return tuple((row[i] is None, row[i]) for i in key_idx)

        return Relation(self.schema,
                        sorted(self.rows, key=sort_key, reverse=descending))

    def head(self, n: int) -> "Relation":
        return Relation(self.schema, self.rows[:n])

    def pretty(self, limit: int = 20) -> str:
        """A small fixed-width rendering for examples and debugging."""
        names = list(self.schema.names)
        shown = [tuple(str(v) for v in row) for row in self.rows[:limit]]
        widths = [max(len(n), *(len(r[i]) for r in shown)) if shown else len(n)
                  for i, n in enumerate(names)]
        header = " | ".join(n.ljust(w) for n, w in zip(names, widths))
        rule = "-+-".join("-" * w for w in widths)
        body = "\n".join(" | ".join(v.ljust(w) for v, w in zip(row, widths))
                         for row in shown)
        suffix = "" if len(self.rows) <= limit else f"\n... ({len(self.rows)} rows)"
        return "\n".join(filter(None, (header, rule, body))) + suffix

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Relation({self.schema.names}, {len(self.rows)} rows)"

    # -- internals ---------------------------------------------------------------

    def _check_compatible(self, other: "Relation") -> None:
        if not self.schema.compatible_with(other.schema):
            raise SchemaError(
                f"set operation between incompatible arities "
                f"{self.schema.arity} and {other.schema.arity}")


def _split(name: str) -> tuple[str, str | None]:
    """Split an optionally qualified name into (name, qualifier)."""
    if "." in name:
        qualifier, bare = name.split(".", 1)
        return bare, qualifier
    return name, None


def _extract_equi_keys(condition: Expression, left: Schema,
                       right: Schema) -> list[tuple[int, int]] | None:
    """If *condition* is a conjunction of cross-side equality comparisons,
    return the (left_index, right_index) pairs; otherwise None."""
    from .expressions import And, BinaryOp, ColumnRef

    conjuncts: list[Expression]
    if isinstance(condition, And):
        conjuncts = list(condition.operands)
    else:
        conjuncts = [condition]
    pairs: list[tuple[int, int]] = []
    for conjunct in conjuncts:
        if not (isinstance(conjunct, BinaryOp) and conjunct.op == "="):
            return None
        a, b = conjunct.left, conjunct.right
        if not (isinstance(a, ColumnRef) and isinstance(b, ColumnRef)):
            return None
        for first, second in ((a, b), (b, a)):
            left_ok = left.has_column(first.name, first.qualifier)
            right_ok = right.has_column(second.name, second.qualifier)
            if left_ok and right_ok:
                pairs.append((left.index_of(first.name, first.qualifier),
                              right.index_of(second.name, second.qualifier)))
                break
        else:
            return None
    return pairs
