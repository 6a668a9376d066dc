"""AST → physical plan compilation.

:class:`QueryRunner` turns parsed statements into physical plans (consulting
the active :class:`~repro.relational.planner.PlannerPolicy` at every choice
point).  Planning executes nothing: derived tables and IN / EXISTS
subqueries become subplans, and a non-recursive WITH's CTEs and a
statement's scalar subqueries become subplans of a
:class:`~repro.relational.physical.Bind`, which runs them once per
execution of the plan — so any plan can be kept and re-executed, the way
the paper's PSM procedure prepares its statements once.

Recursive CTEs are *not* handled here — the engine routes them to
:mod:`repro.relational.recursive`, the with+ → PSM translator.
"""

from __future__ import annotations

from collections import ChainMap
from typing import Sequence

from ..database import Database
from ..errors import BindError, PlanError, SchemaError
from ..expressions import (
    And,
    BinaryOp,
    BoundColumn,
    CaseWhen,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Negate,
    Not,
    Or,
    Parameter,
    contains_aggregate,
    is_aggregate_call,
)
from ..physical import (
    Bind,
    BindingScan,
    Distinct,
    Limit,
    NestedLoopJoin,
    PhysicalOperator,
    RelationScan,
    ReorderColumns,
    Requalify,
    Sort,
    TableScan,
    ExceptOp,
    IntersectOp,
)
from ..planner import PlannerPolicy
from ..relation import AggregateSpec, Relation
from ..schema import Schema
from .ast import (
    ExistsSubquery,
    InSubquery,
    JoinKind,
    JoinSource,
    ScalarSubquery,
    SelectItem,
    SelectStatement,
    SetOpKind,
    SetOperation,
    Statement,
    SubquerySource,
    TableRef,
    WindowCall,
    WithStatement,
    walk,
)


class QueryRunner:
    """Compiles statements against a database and a dict of named slots.

    A name in *slots* plans as a :class:`BindingScan` of its slot, read
    when the plan executes: the dict holds a relation of the name's schema
    while planning and is re-pointed at current contents before each
    execution (the recursive executor's loop relation and COMPUTED BY
    tables, its earlier CTEs).  *estimates* holds the planner's row
    counts for the slots that are empty until then (a nested WITH's
    CTEs)."""

    def __init__(self, database: Database, policy: PlannerPolicy,
                 slots: dict[str, Relation] | None = None,
                 estimates: dict[str, int] | None = None):
        self.database = database
        self.policy = policy
        self.slots = {} if slots is None else slots
        self.estimates = {} if estimates is None else estimates
        #: while :meth:`plan` runs: the slots of the statement's scalar
        #: subqueries, and each as (AST, Parameter, subplan), inner first
        self._values: dict | None = None
        self._scalars: list[tuple] = []

    # -- public API ---------------------------------------------------------

    def plan(self, statement: Statement) -> PhysicalOperator:
        """Build the physical plan for *statement* (EXPLAIN entry point).
        Its scalar subqueries run once per execution, before the rest."""
        if self._values is not None:
            return self._plan(statement)
        values, scalars = self._values, self._scalars = {}, []
        try:
            plan = self._plan(statement)
        finally:
            self._values = None
        if not scalars:
            return plan
        return Bind(plan, values, [(parameter.name, subplan, _scalar_value)
                                   for _, parameter, subplan in scalars])

    def _plan(self, statement: Statement) -> PhysicalOperator:
        if isinstance(statement, SelectStatement):
            return self._plan_select(statement)
        if isinstance(statement, SetOperation):
            left = self._plan(statement.left)
            right = self._plan(statement.right)
            if statement.kind is SetOpKind.UNION_ALL:
                return self.policy.make_union_all(left, right)
            if statement.kind is SetOpKind.UNION:
                return self.policy.make_union(left, right)
            ops = {SetOpKind.EXCEPT: ExceptOp,
                   SetOpKind.INTERSECT: IntersectOp}
            return ops[statement.kind](left, right)
        if isinstance(statement, WithStatement):
            return self._plan_with(statement)
        raise PlanError(f"cannot plan statement {type(statement).__name__}")

    # -- WITH (non-recursive path) --------------------------------------------

    def _plan_with(self, statement: WithStatement) -> PhysicalOperator:
        """The body over its CTEs' slots, which a :class:`Bind` fills once
        per execution: every reference to a CTE reads one result (a
        ``random()`` in it draws once), and the planner sizes it by its
        subplan's estimate.  The CTE names shadow outer ones inside this
        statement only."""
        from ..optimizer import CardinalityEstimator

        estimator = getattr(self.policy, "estimator", None) \
            or CardinalityEstimator()
        scope: dict[str, Relation] = {}
        estimates: dict[str, int] = {}
        scoped = QueryRunner(self.database, self.policy,
                             ChainMap(scope, self.slots),
                             ChainMap(estimates, self.estimates))
        bindings = []
        for cte in statement.ctes:
            if not cte.is_plain_definition:
                raise PlanError(
                    f"recursive CTE {cte.name!r} reached the non-recursive"
                    " compiler; use the engine's with+ path")
            branch = cte.branches[0]
            if branch.computed_by:
                raise PlanError("COMPUTED BY outside a recursive query")
            plan = scoped.plan(branch.statement)
            schema = plan.schema.rename_columns(cte.columns) \
                if cte.columns else plan.schema
            scope[cte.name.lower()] = Relation.empty(schema)
            estimates[cte.name.lower()] = estimator.annotate(plan)
            bindings.append((cte.name.lower(), plan,
                             lambda result, schema=schema:
                             result.with_schema(schema)))
        return Bind(scoped.plan(statement.body), scope, bindings)

    # -- FROM -----------------------------------------------------------------

    def _scan_source(self, source) -> PhysicalOperator:
        if isinstance(source, TableRef):
            slot = self.slots.get(source.name.lower())
            if slot is not None:
                return BindingScan(self.slots, source.name.lower(),
                                   slot.schema, source.binding_name,
                                   self.estimates.get(source.name.lower()))
            if not self.database.exists(source.name):
                raise BindError(f"no table or CTE named {source.name!r}")
            table = self.database.table(source.name)
            return TableScan(table, source.binding_name)
        if isinstance(source, SubquerySource):
            return Requalify(self._plan(source.statement), source.alias)
        if isinstance(source, JoinSource):
            return self._plan_join_source(source)
        raise PlanError(f"unknown FROM source {type(source).__name__}")

    def _plan_join_source(self, source: JoinSource) -> PhysicalOperator:
        left = self._scan_source(source.left)
        right = self._scan_source(source.right)
        if source.kind is JoinKind.CROSS:
            return NestedLoopJoin(left, right, None)
        if source.kind is JoinKind.RIGHT:
            # Flip: RIGHT JOIN A B == LEFT JOIN B A with columns reordered.
            # The reorder is positional so qualifiers survive — a
            # name-based projection would strip them and collide whenever
            # both sides share column names (e.g. a self right-join).
            flipped = self._plan_join_source(
                JoinSource(source.right, source.left, JoinKind.LEFT,
                           source.condition))
            n_right = len(right.schema.columns)
            order = list(range(n_right, n_right + len(left.schema.columns)))
            order += list(range(n_right))
            return ReorderColumns(flipped, order)
        condition = source.condition
        pairs, residual = _split_equi_condition(condition, left.schema,
                                                right.schema)
        if source.kind is JoinKind.INNER:
            if pairs:
                joined = self.policy.make_equi_join(
                    left, right,
                    [p[0] for p in pairs], [p[1] for p in pairs])
            else:
                return NestedLoopJoin(left, right, condition)
            if residual is not None:
                joined = self.policy.make_filter(joined, residual)
            return joined
        if not pairs:
            raise PlanError("outer joins require at least one equality"
                            " condition in this engine")
        if residual is not None:
            raise PlanError("outer joins support only equality conditions"
                            " in this engine")
        left_keys = [p[0] for p in pairs]
        right_keys = [p[1] for p in pairs]
        if source.kind is JoinKind.LEFT:
            return self.policy.make_left_outer_join(left, right,
                                                    left_keys, right_keys)
        if source.kind is JoinKind.FULL:
            return self.policy.make_full_outer_join(left, right,
                                                    left_keys, right_keys)
        raise PlanError(f"unsupported join kind {source.kind}")

    # -- SELECT ------------------------------------------------------------------

    def _plan_select(self, statement: SelectStatement) -> PhysicalOperator:
        conjuncts = _flatten_and(statement.where)
        plain: list[Expression] = []
        subqueried: list[Expression] = []
        for conjunct in conjuncts:
            if _contains_subquery(conjunct):
                subqueried.append(conjunct)
            else:
                plain.append(self._resolve_scalars(conjunct))

        current = self._plan_from(statement.sources, plain, statement)
        for conjunct in subqueried:
            current = self._apply_subquery_conjunct(current, conjunct)

        needs_aggregate = (bool(statement.group_by)
                           or statement.having is not None
                           or any(item.expression is not None
                                  and contains_aggregate(item.expression)
                                  for item in statement.items))
        has_windows = any(item.expression is not None
                          and _contains_window(item.expression)
                          for item in statement.items)
        if needs_aggregate and has_windows:
            raise PlanError("mixing GROUP BY aggregation and window"
                            " functions is not supported")
        pre_projection = current
        if needs_aggregate:
            current = self._plan_aggregate(current, statement)
        elif has_windows:
            current = self._plan_windows(current, statement)
        else:
            items = self._expand_items(statement.items, current.schema)
            current = self.policy.make_project(current, items)
        if statement.distinct:
            current = Distinct(current)
        if statement.order_by:
            keys = [o.expression for o in statement.order_by]
            descending = [o.descending for o in statement.order_by]
            try:
                current = Sort(current, keys, descending)
            except SchemaError:
                # ORDER BY may reference pre-projection columns (SQL allows
                # ordering by source columns not in the select list) —
                # unless DISTINCT already collapsed them away.
                if statement.distinct or needs_aggregate or has_windows:
                    raise
                ordered = Sort(pre_projection, keys, descending)
                items = self._expand_items(statement.items, ordered.schema)
                current = self.policy.make_project(ordered, items)
        if statement.limit is not None:
            current = Limit(current, statement.limit)
        return current

    def _plan_from(self, sources, conjuncts: list[Expression],
                   statement=None) -> PhysicalOperator:
        if not sources:
            # SELECT without FROM: one empty row feeding the projection.
            return RelationScan(Relation(Schema(()), [()]))
        if getattr(self.policy, "cost_based", False):
            from ..optimizer import plan_from_cost_based

            planned = plan_from_cost_based(self, sources, conjuncts, statement)
            if planned is not None:
                return planned
        remaining = list(conjuncts)
        current = self._scan_source(sources[0])
        current, remaining = self._apply_resolvable(current, remaining)
        for source in sources[1:]:
            right = self._scan_source(source)
            pairs: list[tuple[Expression, Expression]] = []
            used: list[Expression] = []
            theta: Expression | None = None
            for conjunct in remaining:
                pair = _as_equi_pair(conjunct, current.schema, right.schema)
                if pair is not None:
                    pairs.append(pair)
                    used.append(conjunct)
            if pairs:
                current = self.policy.make_equi_join(
                    current, right,
                    [p[0] for p in pairs], [p[1] for p in pairs])
            else:
                for conjunct in remaining:
                    if _resolvable(conjunct, current.schema.concat(right.schema)) \
                            and not _resolvable(conjunct, current.schema) \
                            and not _resolvable(conjunct, right.schema):
                        theta = conjunct
                        used.append(conjunct)
                        break
                current = NestedLoopJoin(current, right, theta)
            remaining = [c for c in remaining if not any(c is u for u in used)]
            current, remaining = self._apply_resolvable(current, remaining)
        if remaining:
            unresolved = remaining[0]
            raise BindError(
                f"predicate {unresolved.sql()} references unknown columns")
        return current

    def _apply_resolvable(self, current: PhysicalOperator,
                          conjuncts: list[Expression]
                          ) -> tuple[PhysicalOperator, list[Expression]]:
        kept: list[Expression] = []
        for conjunct in conjuncts:
            if _resolvable(conjunct, current.schema):
                current = self.policy.make_filter(current, conjunct)
            else:
                kept.append(conjunct)
        return current, kept

    # -- subquery conjuncts ----------------------------------------------------------

    def _apply_subquery_conjunct(self, current: PhysicalOperator,
                                 conjunct: Expression) -> PhysicalOperator:
        if isinstance(conjunct, InSubquery):
            sub = Requalify(self._plan(conjunct.subquery), "__sub")
            if sub.schema.arity != 1:
                raise PlanError("IN subquery must return exactly one column")
            right_key = ColumnRef(sub.schema.columns[0].name, "__sub")
            if conjunct.negated:
                return self.policy.make_not_in_anti_join(
                    current, sub, [conjunct.operand], [right_key])
            return self.policy.make_semi_join(
                current, sub, [conjunct.operand], [right_key])
        if isinstance(conjunct, ExistsSubquery):
            return self._apply_exists(current, conjunct)
        raise PlanError(
            f"subquery predicate {conjunct.sql()} must be a top-level"
            " conjunct (IN / EXISTS)")

    def _apply_exists(self, current: PhysicalOperator,
                      node: ExistsSubquery) -> PhysicalOperator:
        subquery = node.subquery
        if not isinstance(subquery, SelectStatement):
            raise PlanError("EXISTS supports plain SELECT subqueries only")
        inner_conjuncts = _flatten_and(subquery.where)
        inner = self._plan_from(subquery.sources, [])
        outer_keys: list[Expression] = []
        inner_keys: list[Expression] = []
        inner_filters: list[Expression] = []
        for conjunct in inner_conjuncts:
            if _resolvable(conjunct, inner.schema):
                inner_filters.append(conjunct)
                continue
            correlated = _as_equi_pair(conjunct, current.schema, inner.schema)
            if correlated is None:
                raise PlanError(
                    f"unsupported correlated predicate {conjunct.sql()}"
                    " in EXISTS")
            outer_keys.append(correlated[0])
            inner_keys.append(correlated[1])
        for predicate in inner_filters:
            inner = self.policy.make_filter(inner, predicate)
        # Uncorrelated, the join has no keys: every row passes or none.
        if node.negated:
            return self.policy.make_anti_join(current, inner,
                                              outer_keys, inner_keys)
        return self.policy.make_semi_join(current, inner,
                                          outer_keys, inner_keys)

    # -- aggregation -------------------------------------------------------------------

    def _plan_aggregate(self, current: PhysicalOperator,
                        statement: SelectStatement) -> PhysicalOperator:
        keys = [self._resolve_scalars(k) for k in statement.group_by]
        collected: list[FunctionCall] = []

        def collect(expr: Expression) -> None:
            if is_aggregate_call(expr):
                if expr not in collected:
                    collected.append(expr)  # type: ignore[arg-type]
                return
            for child in expr.children():
                collect(child)

        resolved_items: list[SelectItem] = []
        for item in statement.items:
            if item.star:
                raise PlanError("SELECT * cannot be combined with GROUP BY")
            expr = self._resolve_scalars(item.expression)
            resolved_items.append(SelectItem(expr, item.alias))
            collect(expr)
        having = (self._resolve_scalars(statement.having)
                  if statement.having is not None else None)
        if having is not None:
            collect(having)

        specs: list[AggregateSpec] = []
        for i, call in enumerate(collected):
            argument = call.args[0] if call.args else None
            specs.append(AggregateSpec(call.name.lower(), argument,
                                       f"__agg{i}"))

        key_aliases: list[str] = []
        seen_aliases: set[str] = set()
        for i, key in enumerate(keys):
            alias = key.name if isinstance(key, ColumnRef) else f"__key{i}"
            if alias.lower() in seen_aliases:
                alias = f"__key{i}"
            seen_aliases.add(alias.lower())
            key_aliases.append(alias)

        aggregate = self.policy.make_aggregate(current, keys, specs,
                                               key_aliases)

        def rewrite(expr: Expression) -> Expression:
            for key, alias in zip(keys, key_aliases):
                if expr == key:
                    return ColumnRef(alias)
            if is_aggregate_call(expr):
                index = collected.index(expr)  # type: ignore[arg-type]
                return ColumnRef(f"__agg{index}")
            return _rebuild(expr, rewrite)

        top: PhysicalOperator = aggregate
        if having is not None:
            top = self.policy.make_filter(top, rewrite(having))
        items: list[tuple[Expression, str]] = []
        for i, item in enumerate(resolved_items):
            rewritten = rewrite(item.expression)
            alias = item.alias or _default_alias(item.expression, i)
            items.append((rewritten, alias))
        return self.policy.make_project(top, items)

    def _plan_windows(self, current: PhysicalOperator,
                      statement: SelectStatement) -> PhysicalOperator:
        from ..physical import WindowAggregate, WindowSpec

        collected: list[WindowCall] = []

        def collect(expr: Expression) -> None:
            if isinstance(expr, WindowCall):
                if expr not in collected:
                    collected.append(expr)
                return
            for child in expr.children():
                collect(child)

        resolved_items: list[SelectItem] = []
        for item in statement.items:
            if item.star:
                raise PlanError("SELECT * cannot be combined with window"
                                " functions in this engine")
            expr = self._resolve_scalars(item.expression)
            resolved_items.append(SelectItem(expr, item.alias))
            collect(expr)
        specs = [WindowSpec(call.function, call.argument, call.partition_by,
                            f"__win{i}") for i, call in enumerate(collected)]
        windowed = WindowAggregate(current, specs)

        def rewrite(expr: Expression) -> Expression:
            if isinstance(expr, WindowCall):
                index = collected.index(expr)
                return ColumnRef(f"__win{index}")
            return _rebuild(expr, rewrite)

        items = [(rewrite(item.expression),
                  item.alias or _default_alias(item.expression, i))
                 for i, item in enumerate(resolved_items)]
        return self.policy.make_project(windowed, items)

    # -- select-list helpers -------------------------------------------------------------

    def _expand_items(self, items: Sequence[SelectItem],
                      schema: Schema) -> list[tuple[Expression, str]]:
        out: list[tuple[Expression, str]] = []
        for i, item in enumerate(items):
            if item.star:
                for column in schema.columns:
                    if (item.star_qualifier is None
                            or (column.qualifier or "").lower()
                            == item.star_qualifier.lower()):
                        out.append((ColumnRef(column.name, column.qualifier),
                                    column.name))
                continue
            expr = self._resolve_scalars(item.expression)
            out.append((expr, item.alias or _default_alias(expr, i)))
        return out

    def _resolve_scalars(self, expr: Expression) -> Expression:
        """Replace each scalar subquery with the :class:`Parameter` the
        plan's :class:`Bind` sets from its subplan; equal subqueries
        share one unless they draw ``random()``, which each occurrence
        draws for itself."""
        if isinstance(expr, ScalarSubquery):
            if not _draws_random(expr.subquery):
                for subquery, parameter, _ in self._scalars:
                    if subquery == expr:
                        return parameter
            subplan = self._plan(expr.subquery)
            if subplan.schema.arity != 1:
                raise PlanError("scalar subquery must return one column")
            parameter = Parameter(self._values,
                                  f"scalar{len(self._scalars) + 1}")
            self._scalars.append((expr, parameter, subplan))
            return parameter
        return _rebuild(expr, self._resolve_scalars)


def _scalar_value(result: Relation):
    """A scalar subquery's value: its one row's one column, or NULL."""
    if len(result) > 1:
        raise PlanError("scalar subquery returned more than one row")
    return result.rows[0][0] if len(result) else None


# -- tree utilities ---------------------------------------------------------------


def _rebuild(expr: Expression, fn) -> Expression:
    """Rebuild *expr* with *fn* applied to each child subtree."""
    if isinstance(expr, BinaryOp):
        return BinaryOp(expr.op, fn(expr.left), fn(expr.right))
    if isinstance(expr, And):
        return And(tuple(fn(o) for o in expr.operands))
    if isinstance(expr, Or):
        return Or(tuple(fn(o) for o in expr.operands))
    if isinstance(expr, Not):
        return Not(fn(expr.operand))
    if isinstance(expr, Negate):
        return Negate(fn(expr.operand))
    if isinstance(expr, IsNull):
        return IsNull(fn(expr.operand), expr.negated)
    if isinstance(expr, InList):
        return InList(fn(expr.operand), tuple(fn(i) for i in expr.items),
                      expr.negated)
    if isinstance(expr, CaseWhen):
        branches = tuple((fn(c), fn(r)) for c, r in expr.branches)
        default = fn(expr.default) if expr.default is not None else None
        return CaseWhen(branches, default)
    if isinstance(expr, FunctionCall):
        return FunctionCall(expr.name, tuple(fn(a) for a in expr.args))
    return expr


def _flatten_and(expr: Expression | None) -> list[Expression]:
    if expr is None:
        return []
    if isinstance(expr, And):
        out: list[Expression] = []
        for operand in expr.operands:
            out.extend(_flatten_and(operand))
        return out
    return [expr]


def _contains_subquery(expr: Expression) -> bool:
    if isinstance(expr, (InSubquery, ExistsSubquery)):
        return True
    return any(_contains_subquery(c) for c in expr.children())


def _draws_random(statement: Statement) -> bool:
    return any(isinstance(node, FunctionCall)
               and node.name.lower() in ("rand", "random")
               for node in walk(statement))


def _contains_window(expr: Expression) -> bool:
    if isinstance(expr, WindowCall):
        return True
    return any(_contains_window(c) for c in expr.children())


def _resolvable(expr: Expression, schema: Schema) -> bool:
    """True when every column reference in *expr* resolves in *schema*."""
    if isinstance(expr, ColumnRef):
        return schema.has_column(expr.name, expr.qualifier)
    if isinstance(expr, BoundColumn):
        return True
    return all(_resolvable(c, schema) for c in expr.children())


def _as_equi_pair(conjunct: Expression, left: Schema, right: Schema
                  ) -> tuple[Expression, Expression] | None:
    """If *conjunct* is ``a = b`` linking the two schemas, return the pair
    oriented (left_expr, right_expr)."""
    if not (isinstance(conjunct, BinaryOp) and conjunct.op == "="):
        return None
    a, b = conjunct.left, conjunct.right
    for first, second in ((a, b), (b, a)):
        if (_resolvable(first, left) and not _resolvable(first, right)
                and _resolvable(second, right)
                and not _resolvable(second, left)):
            return first, second
    # Ambiguous references (same column name on both sides) fall back to
    # strict qualifier-based resolution.
    for first, second in ((a, b), (b, a)):
        if _resolvable(first, left) and _resolvable(second, right):
            return first, second
    return None


def _split_equi_condition(condition: Expression | None, left: Schema,
                          right: Schema
                          ) -> tuple[list[tuple[Expression, Expression]],
                                     Expression | None]:
    """Split an ON condition into equi-join key pairs plus a residual."""
    pairs: list[tuple[Expression, Expression]] = []
    residuals: list[Expression] = []
    for conjunct in _flatten_and(condition):
        pair = _as_equi_pair(conjunct, left, right)
        if pair is not None:
            pairs.append(pair)
        else:
            residuals.append(conjunct)
    if not residuals:
        return pairs, None
    residual = residuals[0] if len(residuals) == 1 else And(tuple(residuals))
    return pairs, residual


def _default_alias(expr: Expression, position: int) -> str:
    if isinstance(expr, ColumnRef):
        return expr.name
    if isinstance(expr, FunctionCall):
        return expr.name.lower()
    return f"c{position + 1}"
