"""Union-by-update rounds on the changed rows.

The fixpoint loop (:mod:`.recursive`) hands a union-by-update CTE that
:func:`delta_update_is_exact` proves — SSSP's and WCC's shape — to a
:class:`DeltaUpdate` for the statement.  From round 2 on a round may
take its step instead of running the kept branch plan: the plan's join
arm, its scan of R rebound to the rows the last round changed, yields
the candidates, and only the values they improve are written.  docs/with_plus_language.md, "Semi-naive union by update", has
the proof; the step declines every round it cannot prove equal.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SchemaError
from .expressions import (BinaryOp, BoundColumn, ColumnRef, Expression,
                          FunctionCall, Literal)
from .physical import TableScan
from .physical.batch import (BatchHashAggregate, BatchProject, BatchUnionAll,
                             rebound_source)
from .physical.blocks import (
    VALUE_ERRORS,
    ArrayColumns,
    ArrayVector,
    _is_int64,
    improve_extremes,
    negative_zero,
)
from .physical.rename import Requalify
from .physical.scan import BindingScan
from .schema import Schema
from .sql.ast import (CommonTableExpression, ExistsSubquery, InSubquery,
                      JoinKind, JoinSource, ScalarSubquery, SelectStatement,
                      SetOperation, SetOpKind, SubquerySource, TableRef,
                      UnionKind, WithStatement, walk)
from .strategies import UpdateCounts
from .table import Table
from .types import SqlType


def delta_update_is_exact(cte: CommonTableExpression, schema: Schema) -> bool:
    """True when each round of the union-by-update CTE *cte*, over R of
    *schema*, writes the same R from the last round's changed rows as
    from all of R.

    That holds for one update-key column, R of arity 2 and one recursive
    branch, without COMPUTED BY, of the shape ::

        select X.k, min|max(X.v) from
          ((<inner join of R once with stable tables> -> k', f)
           union all
           (select k, v from R)) X
        group by X.k

    with no WHERE or HAVING outside, no subquery anywhere and no filter
    on the R arm.  The R arm keeps every R[k] non-increasing under
    ``min`` (non-decreasing under ``max``), so after any round R[k] is at
    least as good as every candidate an unchanged row derives: those rows
    derive nothing new, whatever ``f`` is.  docs/with_plus_language.md,
    "Semi-naive union by update", has the proof and the per-round
    fallbacks (:class:`DeltaUpdate`).
    """
    # The AST walks live in .recursive, which imports this module.
    from .recursive import (_reads_r_linearly, split_branches,
                            statement_references)

    _, recursive = split_branches(cte)
    if cte.union_kind is not UnionKind.UNION_BY_UPDATE \
            or len(cte.update_key) != 1 or schema.arity != 2 \
            or len(recursive) != 1:
        return False
    (branch,) = recursive
    outer = branch.statement
    if branch.computed_by or not isinstance(outer, SelectStatement) \
            or any(isinstance(node, (InSubquery, ExistsSubquery,
                                     ScalarSubquery, WithStatement))
                   for node in walk(outer)) \
            or not _bare(outer, grouped=True) or outer.where is not None \
            or len(outer.sources) != 1 \
            or not isinstance(outer.sources[0], SubquerySource):
        return False
    union = outer.sources[0].statement
    if not isinstance(union, SetOperation) \
            or union.kind is not SetOpKind.UNION_ALL \
            or not isinstance(union.left, SelectStatement) \
            or not isinstance(union.right, SelectStatement):
        return False
    arm, r_arm = union.left, union.right
    name = cte.name.lower()
    try:
        key = schema.index_of(cte.update_key[0])
    except SchemaError:
        return False
    # The R arm is R itself: its columns in its order, nothing else.
    if not _bare(r_arm, grouped=False) or r_arm.where is not None \
            or len(r_arm.sources) != 1 \
            or not isinstance(r_arm.sources[0], TableRef) \
            or r_arm.sources[0].name.lower() != name \
            or _column_names(r_arm, r_arm.sources[0].binding_name) \
            != tuple(n.lower() for n in schema.names):
        return False
    # The join arm reads R once, through inner joins only.
    if not _bare(arm, grouped=False) \
            or statement_references(arm, cte.name) != 1 \
            or not _reads_r_linearly(arm, cte.name) \
            or not all(map(_inner_only, arm.sources)):
        return False
    columns = _column_names(arm, None)
    if columns is None:
        return False
    # Outside: group on X's key column, min or max of its value column.
    alias = outer.sources[0].alias
    (group,) = outer.group_by
    aggregate = outer.items[1 - key].expression
    return _names_column(group, alias) == columns[key] \
        and outer.items[key].expression == group \
        and isinstance(aggregate, FunctionCall) \
        and aggregate.name.lower() in ("min", "max") \
        and len(aggregate.args) == 1 \
        and _names_column(aggregate.args[0], alias) == columns[1 - key]


def _bare(statement: SelectStatement, grouped: bool) -> bool:
    """A SELECT of two plain items with no HAVING, DISTINCT, ORDER BY or
    LIMIT, grouped on one key exactly when *grouped*."""
    return len(statement.items) == 2 \
        and not any(item.star for item in statement.items) \
        and statement.having is None and not statement.distinct \
        and not statement.order_by and statement.limit is None \
        and len(statement.group_by) == (1 if grouped else 0)


def _column_names(statement: SelectStatement,
                  qualifier: str | None) -> tuple | None:
    """The output names of *statement*'s items, lowercased — with a
    *qualifier*, only when every item is a column reference through it
    (or unqualified) — or None where one has no name."""
    names = []
    for item in statement.items:
        if qualifier is not None:
            name = _names_column(item.expression, qualifier)
            if item.alias is not None and item.alias.lower() != name:
                return None
        elif item.alias is not None:
            name = item.alias
        elif isinstance(item.expression, ColumnRef):
            name = item.expression.name
        else:
            return None
        if name is None:
            return None
        names.append(name.lower())
    return tuple(names)


def _names_column(expr: Expression | None, qualifier: str) -> str | None:
    """The lowercased name *expr* refers to when it is a column reference,
    unqualified or through *qualifier*, else None."""
    if not isinstance(expr, ColumnRef) or (
            expr.qualifier is not None
            and expr.qualifier.lower() != qualifier.lower()):
        return None
    return expr.name.lower()


def _inner_only(source) -> bool:
    if isinstance(source, TableRef):
        return True
    return isinstance(source, JoinSource) \
        and source.kind in (JoinKind.INNER, JoinKind.CROSS) \
        and _inner_only(source.left) and _inner_only(source.right)


#: A round runs the kept branch plan instead of the step when more than
#: this share of R, and more than DELTA_UPDATE_ROWS rows, changed in the
#: last one: the plan's kept key plans and gathers then cost less than
#: probing the changed rows and gathering their candidates afresh.  On
#: SSSP and WCC at 2k, 20k and 100k nodes either rule alone loses: the
#: share alone sends WCC's early rounds at 2k to the plan, where every
#: round stepping is faster; the rows alone send SSSP's mid rounds at
#: 100k to the plan, which is slower.
DELTA_UPDATE_SHARE = 0.25
DELTA_UPDATE_ROWS = 2048


class DeltaUpdate:
    """The semi-naive rounds of one union-by-update CTE that
    :func:`delta_update_is_exact` proves, for one statement.

    Round 1 runs the branch plan.  Each later round may instead take
    :meth:`step`: the join arm of the kept plan, its scan of R rebound to
    the rows the last round changed (:func:`~.physical.batch
    .rebound_source`), yields the candidates, which
    :func:`~.physical.blocks.improve_extremes` folds onto R's value
    column at the rows R's key index names (the store's ``"csr"`` index,
    :meth:`~.physical.blocks.CsrIndex.locate`).  A step that cannot
    prove its round equal to the plan's declines before writing, and the
    round runs the plan — always sound: :meth:`begin` and :meth:`end`
    bracket such a round and diff R's vectors for the next one's changed
    rows.
    """

    def __init__(self, name: str, schema: Schema, key: str):
        self.name = name.lower()
        self.key = schema.index_of(key)
        self.value = 1 - self.key
        self.integer = schema.columns[self.value].sql_type is SqlType.INTEGER
        #: positions of the rows the last round changed (None: unknown)
        self.changed = None
        self._before = None
        #: (branch plan, its join arm and aggregate function, or None)
        self._arm: tuple | None = None
        #: whether R's seed had no -0.0 (see :meth:`_zeros_proven`)
        self._seed_clean = False
        self._zeros: bool | None = None

    def begin(self, table: Table, iteration: int) -> None:
        """Before a round that runs the plan: note R's vectors."""
        self._before = _table_vectors(table)
        if iteration == 1:
            self._seed_clean = self._before is not None \
                and not negative_zero(self._before[self.value])

    def end(self, table: Table) -> None:
        """After that round: the rows whose value differs in any bit, and
        those appended — None when either side has no vectors or the old
        rows moved."""
        before, after = self._before, _table_vectors(table)
        self._before = self.changed = None
        if before is None or after is None:
            return
        old_keys, new_keys = before[self.key].data, after[self.key].data
        rows = len(old_keys)
        if len(new_keys) < rows or not (
                old_keys is new_keys
                or np.array_equal(old_keys, new_keys[:rows])):
            return
        old, new = before[self.value].data, after[self.value].data
        self.changed = np.concatenate((
            np.flatnonzero(old.view(np.int64) != new[:rows].view(np.int64)),
            np.arange(rows, len(new), dtype=np.intp)))

    def step(self, table: Table, plan
             ) -> tuple[UpdateCounts, int] | None:
        """Run this round on the changed rows: ``(counts, delta rows)``,
        or None, before writing anything, for the plan to run instead.
        The delta rows are the plan's: its grouped delta holds every key
        of R (the R arm puts each in), and a step adds none."""
        changed = self.changed
        vectors = _table_vectors(table)
        if changed is None or vectors is None or (
                len(changed) > DELTA_UPDATE_SHARE * len(table)
                and len(changed) > DELTA_UPDATE_ROWS):
            return None
        arm = self._join_arm(plan)
        index = table.rows.join_index((self.key,), "csr")[0]
        if arm is None or index is None:
            return None
        node, function = arm
        try:
            source = rebound_source(node, self.name, ArrayColumns(vectors),
                                    changed)
            if source is None:
                return None
            if not source.length:
                self.changed = changed[:0]
                return UpdateCounts(changed=False), len(table)
            found = source.array(self.key)
            values = source.array(self.value)
        except VALUE_ERRORS:
            return None  # the plan raises the row engine's error
        if not _is_int64(found) or values is None:
            return None
        at = index.locate(found.data)
        if at is None:
            return None  # a new key: the plan's merge appends it
        improved = improve_extremes(function, vectors[self.value], at, values,
                                    self.integer, self._zeros_proven(node))
        if improved is None:
            return None
        written, positions = improved
        if len(positions):
            replaced = list(vectors)
            replaced[self.value] = ArrayVector(written)
            table.assign_vectors(replaced)
        self.changed = positions
        return UpdateCounts(overwritten=len(positions),
                            changed=bool(len(positions))), len(table)

    def _join_arm(self, plan) -> tuple | None:
        """``(join arm, "min" | "max")`` of the kept branch *plan* — its
        root projection over the grouped union of the arms — or None
        when the plan is not that shape."""
        kept = self._arm
        if kept is not None and kept[0] is plan:
            return kept[1]
        arm = None
        root = plan.statement_plan
        aggregate = getattr(root, "child", None)
        union = getattr(aggregate, "child", None)
        if isinstance(union, Requalify):
            union = union.child
        if isinstance(root, BatchProject) and root.block_columns is not None \
                and type(aggregate) is BatchHashAggregate \
                and isinstance(union, BatchUnionAll) \
                and union.left.schema.arity == 2 \
                and len(aggregate.aggregates) == 1 \
                and aggregate._key_positions == (self.key,) \
                and _column_index(aggregate._bound_args[0]) == self.value \
                and [_column_index(e) for e in root.block_columns[0]] \
                == ([0, 1] if self.key == 0 else [1, 0]):
            function = aggregate.aggregates[0].function
            if function in ("min", "max"):
                arm = (union.left, function)
        self._arm = (plan, arm)
        self._zeros = None
        return arm

    def _zeros_proven(self, arm) -> bool:
        """True when no ``-0.0`` can arise in this statement: R's value
        column is INTEGER, or R's seed and every column the join arm
        scans hold none and the arm's value is a ``+``/``-`` of columns
        and literals, which makes a ``-0.0`` only from one."""
        if self.integer:
            return True
        if self._zeros is None:
            self._zeros = self._seed_clean \
                and isinstance(arm, BatchProject) \
                and _additive(arm.block_columns[0][self.value]) \
                and _scans_clean(arm, self.name)
        return self._zeros


def _table_vectors(table: Table) -> tuple | None:
    """The columns of a columnar table with no key constraint or index to
    maintain as typed vectors — its vector form's, or each column's
    exact array — else None."""
    if table.storage != "columnar" or table.enforce_key or table.indexes:
        return None
    store = table.rows
    vectors = store.vectors()
    if vectors is None:
        vectors = tuple(map(store.array, range(store.arity)))
        if None in vectors:
            return None
    return vectors


def _column_index(expr) -> int | None:
    return expr.index if isinstance(expr, BoundColumn) else None


def _additive(expr: Expression) -> bool:
    """True for a ``+``/``-`` tree of columns and literals other than
    ``-0.0``: ``a + b`` is ``-0.0`` only when both are, ``a - b`` only
    when ``a`` is."""
    if isinstance(expr, BoundColumn):
        return True
    if isinstance(expr, Literal):
        value = expr.value
        return type(value) is int or (
            type(value) is float
            and (value != 0.0 or math.copysign(1.0, value) > 0))
    return isinstance(expr, BinaryOp) and expr.op in ("+", "-") \
        and _additive(expr.left) and _additive(expr.right)


def _scans_clean(node, name: str) -> bool:
    """True when every scan under *node* but R's is a columnar table
    whose every column has a typed vector without a ``-0.0``."""
    if isinstance(node, BindingScan) and node.name == name:
        return True
    if isinstance(node, TableScan):
        store = node.table.rows
        if getattr(store, "storage", "rows") != "columnar":
            return False
        vectors = [store.array(j) for j in range(store.arity)]
        return all(vector is not None and not negative_zero(vector)
                   for vector in vectors)
    children = node.children()
    return bool(children) and all(_scans_clean(child, name)
                                  for child in children)
