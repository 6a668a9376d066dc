"""Join operators: hash, merge and nested-loop, inner/outer/semi/anti.

The planner chooses among these per dialect profile; the paper's observed
behaviour maps onto them as follows:

* Oracle and DB2 profiles use :class:`HashJoin` for equi-joins;
* the PostgreSQL profile uses :class:`MergeJoin` when temp-table statistics
  are stale — paying an explicit sort unless an ordered index feed is
  available (Fig 10);
* ``NOT IN`` compiles to :class:`NotInAntiJoin`, whose extra NULL
  bookkeeping is the cost difference measured in Tables 6/7, while
  ``NOT EXISTS`` and ``LEFT OUTER JOIN ... IS NULL`` both compile to
  :class:`HashAntiJoin` ("not exists and left outer join will generate the
  same query plan").
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from ..errors import SchemaError
from ..expressions import (
    ColumnRef,
    Expression,
    bind,
    compile_expression,
    compile_key_function,
    reads_parameter,
)
from ..relation import Row
from ..schema import Schema
from .base import PhysicalOperator
from .filter import Filter
from .project import Project
from .prune import ColumnPrune
from .rename import Requalify
from .scan import BindingScan, IndexOrderedScan, RelationScan, TableScan

KeyFn = Callable[[Row], tuple]


def _key_fn(keys: Sequence[Expression], schema: Schema) -> KeyFn:
    bound = [bind(k, schema) for k in keys]
    return compile_key_function(bound)


def _keys_sql(keys: Sequence[Expression]) -> str:
    return ", ".join(k.sql() for k in keys)


class _BinaryJoin(PhysicalOperator):
    """Shared machinery for key-based binary joins."""

    #: Rows hashed into build-side tables, accumulated over executions.
    #: Telemetry reads these as free byproducts (no per-probe cost).
    build_rows_observed = 0

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator,
                 left_keys: Sequence[Expression],
                 right_keys: Sequence[Expression]):
        self.left = left
        self.right = right
        self.left_keys = tuple(left_keys)
        self.right_keys = tuple(right_keys)
        self._left_key = _key_fn(left_keys, left.schema)
        self._right_key = _key_fn(right_keys, right.schema)
        self._schema = left.schema.concat(right.schema)

    @property
    def schema(self) -> Schema:
        return self._schema

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.left, self.right)

    def detail(self) -> str:
        return f"{_keys_sql(self.left_keys)} = {_keys_sql(self.right_keys)}"


class HashJoin(_BinaryJoin):
    """Inner equi-join: build a hash table on one side, probe with the other.

    ``build_side`` is chosen by the planner policy — with fresh statistics
    (the Oracle/DB2 profiles) the smaller input becomes the build side,
    which is precisely the plan quality the paper credits the commercial
    optimizers with; without statistics the default (right) build is used.
    """

    label = "Hash Join"

    def __init__(self, left, right, left_keys, right_keys,
                 build_side: str = "right"):
        super().__init__(left, right, left_keys, right_keys)
        if build_side not in ("left", "right"):
            raise ValueError(f"bad build_side {build_side!r}")
        self.build_side = build_side

    def rows(self) -> Iterator[Row]:
        if self.build_side == "right":
            build, probe = self.right, self.left
            build_key, probe_key = self._right_key, self._left_key
        else:
            build, probe = self.left, self.right
            build_key, probe_key = self._left_key, self._right_key
        index: dict[tuple, list[Row]] = {}
        for row in build.rows():
            key = build_key(row)
            if any(v is None for v in key):
                continue
            index.setdefault(key, []).append(row)
        self.build_rows_observed += sum(map(len, index.values()))
        if self.build_side == "right":
            for row in probe.rows():
                key = probe_key(row)
                if any(v is None for v in key):
                    continue
                for match in index.get(key, ()):
                    yield row + match
        else:
            for row in probe.rows():
                key = probe_key(row)
                if any(v is None for v in key):
                    continue
                for match in index.get(key, ()):
                    yield match + row

    def detail(self) -> str:
        base = super().detail()
        if self.build_side == "left":
            return f"{base}; build left"
        return base


class MergeJoin(_BinaryJoin):
    """Sort-merge inner equi-join.

    Inputs are sorted on their join keys unless they are
    :class:`IndexOrderedScan` nodes whose index key order already matches —
    in that case the sort is skipped, which is precisely the saving the
    paper's Exp-A attributes to indexing temp tables in PostgreSQL.
    """

    label = "Merge Join"

    def _sorted_side(self, child: PhysicalOperator, key_fn: KeyFn,
                     keys: Sequence[Expression]) -> list[tuple[tuple, Row]]:
        if self._feed_is_presorted(child, keys):
            # An index scan hands over (key, row) pairs already in key
            # order: no per-row key evaluation and no sort — this is the
            # work the paper's Exp-A indexing saves.
            index = child.index  # type: ignore[attr-defined]
            return list(zip(index.ordered_keys(), index.ordered_rows()))
        pairs = []
        for row in child.rows():
            key = key_fn(row)
            if not any(v is None for v in key):
                pairs.append((key, row))
        pairs.sort(key=lambda kr: kr[0])
        return pairs

    @staticmethod
    def _feed_is_presorted(child: PhysicalOperator,
                           keys: Sequence[Expression]) -> bool:
        if not isinstance(child, IndexOrderedScan):
            return False
        wanted: list[int] = []
        for key in keys:
            if not isinstance(key, ColumnRef):
                return False
            try:
                wanted.append(child.schema.index_of(key.name, key.qualifier))
            except SchemaError:
                return False
        return tuple(wanted) == tuple(child.index.key_positions)

    def rows(self) -> Iterator[Row]:
        left_pairs = self._sorted_side(self.left, self._left_key, self.left_keys)
        right_pairs = self._sorted_side(self.right, self._right_key,
                                        self.right_keys)
        i = j = 0
        n, m = len(left_pairs), len(right_pairs)
        while i < n and j < m:
            lkey, lrow = left_pairs[i]
            rkey, _ = right_pairs[j]
            if lkey < rkey:
                i += 1
            elif lkey > rkey:
                j += 1
            else:
                # gather the right-side group for this key
                group_start = j
                while j < m and right_pairs[j][0] == lkey:
                    j += 1
                group = right_pairs[group_start:j]
                while i < n and left_pairs[i][0] == lkey:
                    lrow = left_pairs[i][1]
                    for _, rrow in group:
                        yield lrow + rrow
                    i += 1

    def detail(self) -> str:
        notes = []
        if self._feed_is_presorted(self.left, self.left_keys):
            notes.append("left presorted")
        if self._feed_is_presorted(self.right, self.right_keys):
            notes.append("right presorted")
        base = super().detail()
        return base + (f"; {', '.join(notes)}" if notes else "")


class NestedLoopJoin(PhysicalOperator):
    """θ-join fallback: materialise the right side, loop over the left."""

    label = "Nested Loop Join"

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator,
                 condition: Expression | None = None):
        self.left = left
        self.right = right
        self._schema = left.schema.concat(right.schema)
        self.condition = (bind(condition, self._schema)
                          if condition is not None else None)
        self._condition_fn = (compile_expression(self.condition)
                              if self.condition is not None else None)

    @property
    def schema(self) -> Schema:
        return self._schema

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.left, self.right)

    def rows(self) -> Iterator[Row]:
        right_rows = list(self.right.rows())
        condition = self._condition_fn
        for lrow in self.left.rows():
            for rrow in right_rows:
                combined = lrow + rrow
                if condition is None or condition(combined) is True:
                    yield combined

    def detail(self) -> str:
        return self.condition.sql() if self.condition is not None else "cross"


class HashLeftOuterJoin(_BinaryJoin):
    """Left outer equi-join, NULL-padding unmatched left rows."""

    label = "Hash Left Join"

    def rows(self) -> Iterator[Row]:
        index: dict[tuple, list[Row]] = {}
        right_key = self._right_key
        for row in self.right.rows():
            index.setdefault(right_key(row), []).append(row)
        self.build_rows_observed += sum(map(len, index.values()))
        pad = (None,) * self.right.schema.arity
        left_key = self._left_key
        for row in self.left.rows():
            key = left_key(row)
            matches = (index.get(key)
                       if all(v is not None for v in key) else None)
            if matches:
                for match in matches:
                    yield row + match
            else:
                yield row + pad


class HashFullOuterJoin(_BinaryJoin):
    """Full outer equi-join — the paper's preferred union-by-update plan."""

    label = "Hash Full Join"

    def rows(self) -> Iterator[Row]:
        right_rows = list(self.right.rows())
        index: dict[tuple, list[int]] = {}
        right_key = self._right_key
        for pos, row in enumerate(right_rows):
            key = right_key(row)
            if all(v is not None for v in key):
                index.setdefault(key, []).append(pos)
        self.build_rows_observed += sum(map(len, index.values()))
        matched: set[int] = set()
        pad_right = (None,) * self.right.schema.arity
        pad_left = (None,) * self.left.schema.arity
        left_key = self._left_key
        for row in self.left.rows():
            key = left_key(row)
            positions = (index.get(key)
                         if all(v is not None for v in key) else None)
            if positions:
                for pos in positions:
                    matched.add(pos)
                    yield row + right_rows[pos]
            else:
                yield row + pad_right
        for pos, row in enumerate(right_rows):
            if pos not in matched:
                yield pad_left + row


class HashSemiJoin(_BinaryJoin):
    """Left rows with at least one right match (EXISTS)."""

    label = "Hash Semi Join"

    @property
    def schema(self) -> Schema:
        return self.left.schema

    def rows(self) -> Iterator[Row]:
        # Build-side NULL handling matches HashJoin: a key containing NULL
        # can never compare equal to anything, so it never enters the set.
        right_key = self._right_key
        keys = {key for key in map(right_key, self.right.rows())
                if None not in key}
        left_key = self._left_key
        for row in self.left.rows():
            key = left_key(row)
            if None not in key and key in keys:
                yield row


class HashAntiJoin(_BinaryJoin):
    """Left rows with no right match — NOT EXISTS / LEFT JOIN ... IS NULL.

    EXISTS-style NULL handling: a left row whose key contains NULL never
    matches anything, so it *survives* the anti-join.
    """

    label = "Hash Anti Join"
    #: Rows removed, accumulated over executions.
    pruned_total = 0

    @property
    def schema(self) -> Schema:
        return self.left.schema

    def rows(self) -> Iterator[Row]:
        # NULL-containing build keys match nothing; skip them like HashJoin.
        right_key = self._right_key
        keys = {key for key in map(right_key, self.right.rows())
                if None not in key}
        left_key = self._left_key
        pruned = 0
        try:
            for row in self.left.rows():
                key = left_key(row)
                if None in key or key not in keys:
                    yield row
                else:
                    pruned += 1
        finally:
            self.pruned_total += pruned


class NotInAntiJoin(_BinaryJoin):
    """NULL-aware anti-join implementing SQL ``NOT IN`` semantics.

    ``x NOT IN (S)`` is TRUE only when x is non-NULL, S contains no NULL and
    x matches nothing in S.  The extra NULL bookkeeping (tracking whether
    the inner side produced NULL keys, filtering NULL probes) is what makes
    this plan measurably slower than :class:`HashAntiJoin` in the paper's
    Tables 6/7.
    """

    label = "Not-In Anti Join"
    #: Rows removed, accumulated over executions.
    pruned_total = 0

    @property
    def schema(self) -> Schema:
        return self.left.schema

    def rows(self) -> Iterator[Row]:
        right_key = self._right_key
        keys: set[tuple] = set()
        inner_has_null = False
        for row in self.right.rows():
            key = right_key(row)
            if any(v is None for v in key):
                inner_has_null = True
            else:
                keys.add(key)
        if inner_has_null:
            # NOT IN over a set containing NULL can never be TRUE.
            return
        left_key = self._left_key
        pruned = 0
        try:
            for row in self.left.rows():
                key = left_key(row)
                if any(v is None for v in key):
                    pruned += 1
                    continue
                if key not in keys:
                    yield row
                else:
                    pruned += 1
        finally:
            self.pruned_total += pruned


# -- build-side caching across plan re-executions ------------------------------


def stable_input_fingerprint(node: PhysicalOperator) -> tuple | None:
    """A value identifying the *contents* feeding *node*, or ``None``.

    A subtree is *stable* when re-executing it can only ever produce the
    same rows: every leaf is either a scan of an immutable, already
    materialised relation or a table scan (whose statistics version counts
    mutations), and every interior node is a deterministic row transformer.
    ``None`` means the subtree's output may change between executions —
    e.g. it reads a live recursive-loop slot (:class:`BindingScan`).

    The fingerprint changes whenever any underlying table mutates, so a
    cached hash-join build over it is invalidated exactly when needed.
    """
    if isinstance(node, (TableScan, IndexOrderedScan)):
        return (id(node.table), node.table.statistics.version)
    if isinstance(node, RelationScan):
        return (id(node.relation),)
    if isinstance(node, BindingScan):
        return None
    if isinstance(node, (Filter, Project, ColumnPrune, Requalify)):
        if any(map(reads_parameter, _expressions(node))):
            return None  # a scalar subquery's value, bound per execution
        child = stable_input_fingerprint(node.children()[0])
        if child is None:
            return None
        return (type(node).__name__,) + child
    return None


def _expressions(node: PhysicalOperator) -> tuple[Expression, ...]:
    if isinstance(node, Filter):
        return (node.predicate,)
    if isinstance(node, Project):
        return tuple(expr for expr, _ in node.items)
    return ()


def contains_binding_scan(node: PhysicalOperator) -> bool:
    """True when *node*'s subtree reads a live recursive-loop slot."""
    if isinstance(node, BindingScan):
        return True
    return any(contains_binding_scan(c) for c in node.children())


def pruning_nodes(plans) -> list[PhysicalOperator]:
    """The nodes of the plan trees *plans* that count the rows they
    prune in ``pruned_total`` — the anti-joins — found in one walk, so a
    caller re-reading the counts of kept plans need not walk again."""
    found = []
    stack = list(plans)
    while stack:
        node = stack.pop()
        if hasattr(node, "pruned_total"):
            found.append(node)
        stack.extend(node.children())
    return found
