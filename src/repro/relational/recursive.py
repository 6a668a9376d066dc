"""Recursive ``with``/``with+`` execution — the paper's Algorithm 1.

A recursive CTE is processed exactly as the paper's PSM translation does:

1. build a local dependency graph per subquery and check the
   ``COMPUTED BY`` block is cycle-free;
2. create a temp table for the recursive relation ``R`` and fill it from
   the initial subqueries;
3. loop: per recursive subquery, (re)fill its computed-by temp tables in
   definition order, evaluate the subquery into a delta, then combine the
   deltas into ``R`` with ``UNION ALL`` / ``UNION`` / ``UNION BY UPDATE``;
4. exit when every delta is empty (inflationary kinds), when ``R`` reaches
   a tuple-identical fixpoint (union-by-update), or when ``MAXRECURSION``
   is reached.

``mode="with"`` additionally enforces the SQL'99 restrictions of the
active dialect (Table 1); ``mode="with+"`` (default) accepts the full
enhanced language.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np

from .database import Database
from .delta_update import DeltaUpdate, delta_update_is_exact
from .dialects.base import Dialect
from .errors import (
    CatalogError,
    ExecutionError,
    FeatureNotSupportedError,
    PlanError,
    RecursionLimitError,
    SchemaError,
    StratificationError,
)
from .expressions import Expression, FunctionCall, InList, contains_aggregate
from .physical import (IndexOrderedScan, StatsSink, TableScan, recording,
                       render_analysis)
from .physical.batch import keep_key_plans
from .physical.blocks import (
    ArrayColumns,
    ArrayVector,
    _is_int64,
    distinct_first,
    key_set,
    key_set_add,
    key_set_member,
    pack_keys,
)
from .physical.joins import pruning_nodes
from .optimizer import annotate_estimates
from .planner import CostBasedPolicy, PlannerPolicy
from .relation import Relation
from .schema import Column, Schema
from .sql.ast import (
    CommonTableExpression,
    CteBranch,
    ExistsSubquery,
    InSubquery,
    JoinKind,
    JoinSource,
    ScalarSubquery,
    SelectStatement,
    SetOperation,
    SetOpKind,
    Statement,
    TableRef,
    UnionKind,
    WindowCall,
    WithStatement,
    walk,
)
from .sql.compiler import QueryRunner
from .strategies import UpdateCounts, apply_union_by_update
from .table import Table
from .types import SqlType

#: Safety cap when a query carries no MAXRECURSION hint.
DEFAULT_RECURSION_CAP = 10_000

#: Statements whose plans an engine keeps: as many as the parser keeps
#: parsed texts.
PLAN_CACHE_SIZE = 256

#: Safety cap on the recursive relation's size: a divergent UNION ALL can
#: grow the table super-linearly long before the iteration cap triggers,
#: so runaway row growth aborts the recursion early with a clear error.
DEFAULT_ROW_CAP = 5_000_000


@dataclass
class WarmStart:
    """A recursive CTE resumed from *seed* instead of its initial queries.

    *frontier*, an int64 vector of R keys, names the seed rows that may
    now derive a better candidate than the seed holds.  A union by update
    that :func:`~.delta_update.delta_update_is_exact` proves then takes
    round 1 as a :class:`~.delta_update.DeltaUpdate` step over those rows
    instead of running the kept branch plan; docs/with_plus_language.md,
    "Semi-naive union by update", has the caller's proof obligation.
    Without a frontier round 1 runs the plan.
    """

    seed: Relation
    frontier: np.ndarray | None = None


@dataclass
class IterationStat:
    """Per-iteration measurements (Fig 12/13 are plotted from these)."""

    iteration: int
    delta_rows: int
    total_rows: int
    seconds: float
    #: Delta rows appended as genuinely new keys/tuples this iteration.
    inserted: int = 0
    #: Existing rows overwritten by UNION BY UPDATE this iteration.
    overwritten: int = 0
    #: Delta rows the combine step discarded (UNION duplicates, no-op
    #: union-by-update rows).
    pruned: int = 0
    #: Rows removed by anti-join operators while computing the deltas
    #: (semi-naive pruning of already-derived tuples).
    antijoin_pruned: int = 0
    #: Wall seconds per recursive branch, in branch order.
    branch_seconds: tuple = ()
    #: What the round's branches read R as: ``"delta"`` — the rows the
    #: last round added or changed, or a warm start's frontier — or
    #: ``"full"``.
    binding: str = "full"


@dataclass
class WithExecutionResult:
    """Result of a recursive with/with+ execution, with its statistics."""

    relation: Relation
    iterations: int = 0
    per_iteration: list[IterationStat] = field(default_factory=list)
    hit_maxrecursion: bool = False
    #: Statement plans compiled: initial queries, each branch (and
    #: COMPUTED BY definition) once rather than per iteration, the body —
    #: or a plain statement's one plan.  0 when a statement run again
    #: found its plans kept (:class:`PlanCache`).
    plans_compiled: int = 0
    #: Kept plans re-executed instead of recompiled.
    plan_cache_hits: int = 0
    #: Kept plans dropped and replanned — mid-loop on cardinality drift
    #: (``CostBasedPolicy.REPLAN_FACTOR``) or when a statement's kept
    #: plans were stale — counted by reason in ``replan_reasons``:
    #: ``drift``, ``replaced``, ``analyze`` or ``schema``.
    replans: int = 0
    replan_reasons: dict[str, int] = field(default_factory=dict)
    #: Union-by-update rounds taken as a DeltaUpdate step over the rows
    #: the last round (or a warm start's frontier) changed, not the plan.
    steps: int = 0
    #: Per recursive CTE name, what its branch statements read R as from
    #: iteration 2 on: ``"delta"`` (the last round's new rows — or, for a
    #: union by update, the rows it changed, in the rounds
    #: ``IterationStat.binding`` marks, round 1 of a warm start with a
    #: frontier included) or ``"full"`` (all of R) — see
    #: docs/with_plus_language.md.
    binding: dict[str, str] = field(default_factory=dict)
    #: A :class:`repro.observability.QueryTelemetry` when executed through
    #: an :class:`~repro.relational.engine.Engine` (phase timings, row
    #: counts, convergence trajectory); ``None`` for bare executor runs.
    telemetry: object | None = None

    def replanned(self, reason: str) -> None:
        self.replans += 1
        self.replan_reasons[reason] = self.replan_reasons.get(reason, 0) + 1

    @property
    def convergence(self) -> tuple[int, ...]:
        """Delta cardinality per iteration — the fixpoint trajectory."""
        return tuple(stat.delta_rows for stat in self.per_iteration)

    def __repr__(self) -> str:
        return (f"WithExecutionResult(rows={len(self.relation)},"
                f" iterations={self.iterations},"
                f" plans_compiled={self.plans_compiled},"
                f" plan_cache_hits={self.plan_cache_hits},"
                f" replans={self.replans},"
                f" hit_maxrecursion={self.hit_maxrecursion})")


# -- reference detection -------------------------------------------------------


def statement_references(statement: Statement, name: str) -> int:
    """Count references to table/CTE *name* anywhere in *statement*."""
    lowered = name.lower()
    return sum(isinstance(node, TableRef) and node.name.lower() == lowered
               for node in walk(statement))


def branch_references(branch: CteBranch, name: str) -> int:
    """References to *name* in a branch, including its COMPUTED BY block."""
    total = statement_references(branch.statement, name)
    for definition in branch.computed_by:
        total += statement_references(definition.statement, name)
    return total


def cte_is_recursive(cte: CommonTableExpression) -> bool:
    return any(branch_references(b, cte.name) for b in cte.branches)


def split_branches(cte: CommonTableExpression
                   ) -> tuple[list[CteBranch], list[CteBranch]]:
    """Partition branches into (initial, recursive)."""
    initial, recursive = [], []
    for branch in cte.branches:
        if branch_references(branch, cte.name):
            recursive.append(branch)
        else:
            initial.append(branch)
    return initial, recursive


# -- with+ validation ----------------------------------------------------------


def validate_withplus(cte: CommonTableExpression,
                      recursive: Sequence[CteBranch] | None = None) -> None:
    """Structural rules of the enhanced with clause (Section 6).

    * ``UNION BY UPDATE`` admits exactly one recursive subquery (the update
      is otherwise not uniquely determined);
    * a COMPUTED BY block must be cycle-free: each definition may refer
      only to base tables, the recursive relation and *earlier* definitions.

    *recursive* is the CTE's recursive branches when the caller has
    them split already (:func:`split_branches`).
    """
    if recursive is None:
        _, recursive = split_branches(cte)
    if cte.union_kind is UnionKind.UNION_BY_UPDATE and len(recursive) > 1:
        raise StratificationError(
            "union by update admits exactly one recursive subquery;"
            f" {cte.name!r} has {len(recursive)}")
    for branch in cte.branches:
        all_names = [d.name.lower() for d in branch.computed_by]
        defined: set[str] = set()
        for definition in branch.computed_by:
            if statement_references(definition.statement, definition.name):
                raise StratificationError(
                    f"computed-by relation {definition.name!r} refers to"
                    " itself (cycle)")
            for other in all_names:
                if (other != definition.name.lower()
                        and other not in defined
                        and statement_references(definition.statement, other)):
                    raise StratificationError(
                        f"computed-by relation {definition.name!r} refers to"
                        f" {other!r} before it is defined (cycle)")
            defined.add(definition.name.lower())


# -- SQL'99 restriction checking (Table 1) -----------------------------------------


def _expression_has_negation(expr: Expression | None) -> bool:
    if expr is None:
        return False
    if isinstance(expr, (InSubquery, ExistsSubquery)) and expr.negated:
        return True
    if isinstance(expr, InList) and expr.negated:
        return True
    return any(_expression_has_negation(c) for c in expr.children()
               if isinstance(c, Expression))


def _expression_has_window(expr: Expression | None) -> bool:
    if expr is None:
        return False
    if isinstance(expr, WindowCall):
        return True
    return any(_expression_has_window(c) for c in expr.children())


def _expression_has_scalar_function(expr: Expression | None) -> bool:
    if expr is None:
        return False
    if isinstance(expr, FunctionCall):
        return True
    return any(_expression_has_scalar_function(c) for c in expr.children())


def _subquery_expressions(statement: SelectStatement):
    for item in statement.items:
        if item.expression is not None:
            yield item.expression
    yield from (s for s in (statement.where, statement.having)
                if s is not None)
    yield from statement.group_by


def check_sql99_restrictions(cte: CommonTableExpression,
                             dialect: Dialect) -> None:
    """Reject what the dialect's plain ``with`` clause prohibits (Table 1)."""

    def refuse(feature: str) -> None:
        raise FeatureNotSupportedError(dialect.name, feature)

    if cte.union_kind is UnionKind.UNION_BY_UPDATE:
        refuse("union by update (with+ extension)")
    if cte.maxrecursion is not None:
        refuse("maxrecursion (with+ extension)")
    for branch in cte.branches:
        if branch.computed_by:
            refuse("computed by (with+ extension)")
    initial, recursive = split_branches(cte)
    if (cte.union_kind is UnionKind.UNION and recursive
            and not dialect.supports_with_feature(
                "setop_across_initial_recursive")):
        refuse("UNION across initial and recursive queries")
    if len(recursive) > 1 and not dialect.supports_with_feature(
            "multiple_recursive_queries"):
        refuse("multiple recursive subqueries")
    for branch in recursive:
        if statement_references(branch.statement, cte.name) > 1:
            refuse("nonlinear recursion")
        for statement in _leaf_selects(branch.statement):
            for feature in _leaf_features(statement, cte.name):
                switch = _DIALECT_SWITCHES.get(feature)
                if switch is None or not dialect.supports_with_feature(switch):
                    refuse(feature)


def _leaf_selects(statement: Statement):
    if isinstance(statement, SelectStatement):
        yield statement
    elif isinstance(statement, SetOperation):
        yield from _leaf_selects(statement.left)
        yield from _leaf_selects(statement.right)


#: Leaf features a dialect's plain ``with`` may allow, by its Table 1 switch.
_DIALECT_SWITCHES = {
    "distinct in a recursive query": "distinct",
    "analytical functions in a recursive query": "analytical_functions",
    "general functions in a recursive query": "general_functions",
}


def _leaf_features(statement: SelectStatement, name: str) -> list[str]:
    """The Table 1 features a recursive leaf SELECT over *name* uses, in
    the order :func:`check_sql99_restrictions` refuses them."""
    expressions = list(_subquery_expressions(statement))
    features = []
    if statement.group_by or statement.having is not None:
        features.append("group by / having in a recursive query")
    if any(map(contains_aggregate, expressions)):
        features.append("aggregate functions in a recursive query")
    if statement.distinct:
        features.append("distinct in a recursive query")
    if _expression_has_negation(statement.where):
        features.append("negation in a recursive query")
    if any(map(_expression_has_window, expressions)):
        features.append("analytical functions in a recursive query")
    if any(map(_expression_has_scalar_function, expressions)):
        features.append("general functions in a recursive query")
    if any(statement_references(sub, name) for expr in expressions
           for sub in _embedded_statements(expr)):
        features.append("subquery referencing the recursive relation")
    return features


def _embedded_statements(expr: Expression):
    if isinstance(expr, (InSubquery, ExistsSubquery, ScalarSubquery)):
        yield expr.subquery
    for child in expr.children():
        yield from _embedded_statements(child)


# -- semi-naive by proof ---------------------------------------------------------

#: Leaf features that make a SELECT's rows depend on R as a whole, not row
#: by row: a with+ UNION branch using one keeps reading the full R.
_WHOLE_R_FEATURES = frozenset((
    "group by / having in a recursive query",
    "aggregate functions in a recursive query",
    "analytical functions in a recursive query",
    "subquery referencing the recursive relation",
))


def delta_binding_is_exact(cte: CommonTableExpression, schema: Schema,
                           outputs: Sequence[Schema]) -> bool:
    """True when the recursive branches of the with+ ``UNION`` CTE *cte*
    derive the same new rows each round from the last round's new rows
    as from the whole recursive relation R — R of *schema*, the branches
    producing relations of the schemas *outputs*.

    That holds when every recursive branch has no COMPUTED BY and reads R
    exactly once (:func:`_reads_r_linearly`), and every branch output
    column has R's column type: the insert then stores the rows as
    produced, so a derived row the combine dropped as old is never one it
    stored in another form (docs/with_plus_language.md, "Semi-naive by
    proof", says why each rule exists).
    """
    types = tuple(column.sql_type for column in schema.columns)
    _, recursive = split_branches(cte)
    return all(not branch.computed_by
               and statement_references(branch.statement, cte.name) == 1
               and _reads_r_linearly(branch.statement, cte.name)
               for branch in recursive) \
        and all(tuple(column.sql_type for column in output.columns) == types
                for output in outputs)


def _reads_r_linearly(statement: Statement, name: str) -> bool:
    """True when the one reference to *name* in *statement* is a FROM
    table of a leaf SELECT reached through UNION [ALL] only, outside any
    subquery and the null-supplying side of an outer join, in a leaf
    with no LIMIT and none of :data:`_WHOLE_R_FEATURES`."""
    if isinstance(statement, SetOperation):
        if statement.kind not in (SetOpKind.UNION, SetOpKind.UNION_ALL):
            return False
        side = statement.left if statement_references(statement.left, name) \
            else statement.right
        return _reads_r_linearly(side, name)
    return (isinstance(statement, SelectStatement)
            and statement.limit is None
            and _WHOLE_R_FEATURES.isdisjoint(_leaf_features(statement, name))
            and any(_source_reads(source, name.lower())
                    for source in statement.sources))


def _source_reads(source, name: str) -> bool:
    """True when FROM item *source* reads table *name* on a preserved
    side: never inside a derived table, never NULL-padded."""
    if isinstance(source, TableRef):
        return source.name.lower() == name
    if isinstance(source, JoinSource):
        return ((source.kind not in (JoinKind.RIGHT, JoinKind.FULL)
                 and _source_reads(source.left, name))
                or (source.kind not in (JoinKind.LEFT, JoinKind.FULL)
                    and _source_reads(source.right, name)))
    return False


# -- distinct keys by proof ------------------------------------------------------


def delta_keys_are_distinct(cte: CommonTableExpression,
                            schema: Schema) -> bool:
    """True when the one recursive branch of the union-by-update CTE
    *cte*, over R of *schema*, never produces a key twice.

    That holds for a plain SELECT — no COMPUTED BY, no ``*`` item, R's
    arity — grouped on exactly one expression that is, as an AST, the
    select item at the one update-key column's position.  The compiler
    takes that item from the group key, one row per group, and no two
    groups have equal keys; so consolidating the delta
    (:func:`~repro.relational.strategies.consolidate_delta`) would return
    it untouched.  docs/with_plus_language.md, "Distinct keys by
    proof", has the rules.
    """
    _, recursive = split_branches(cte)
    if len(cte.update_key) != 1 or len(recursive) != 1:
        return False
    (branch,) = recursive
    statement = branch.statement
    if branch.computed_by or not isinstance(statement, SelectStatement) \
            or len(statement.items) != schema.arity \
            or any(item.star for item in statement.items) \
            or len(statement.group_by) != 1:
        return False
    try:
        position = schema.index_of(cte.update_key[0])
    except SchemaError:
        return False
    (key,) = statement.group_by
    return statement.items[position].expression == key


# -- plan caching ------------------------------------------------------------------


def _frontier_rows(table: Table, key: int, frontier: np.ndarray
                   ) -> np.ndarray | None:
    """The sorted positions of R's rows keyed by the *frontier* keys,
    located through R's ``"csr"`` key index — None when R is not columnar
    or has no such index, or a key is not the key of one row of R."""
    if not len(frontier):
        return np.zeros(0, dtype=np.intp)
    if table.storage != "columnar":
        return None
    index = table.rows.join_index((key,), "csr")[0]
    found = None if index is None else index.locate(frontier)
    return None if found is None else np.unique(found)


def _cardinality_drifted(planned: int | None, current: int,
                         factor: float) -> bool:
    """True when *current* rows diverge from the *planned* cardinality by
    more than *factor* in either direction."""
    if planned is None:
        return False
    ratio = max(current, 1) / max(planned, 1)
    return ratio > factor or ratio < 1.0 / factor


@dataclass
class _CachedBranchPlans:
    """One with+ branch compiled once: COMPUTED BY plans in definition
    order, then the branch statement's plan.  All scans of the recursive
    relation / computed tables are BindingScans over the executor's live
    slot dicts, so re-execution sees each iteration's current contents."""

    computed: list  # [(definition, PhysicalOperator), ...]
    statement_plan: object
    #: rows of the recursive relation's slot when these were planned
    planned_input: int | None = None
    #: the plans compiled when R drifted away from *planned_input* — a
    #: later run takes them at the same point of its loop.  They read the
    #: same tables as these, so these plans' scans date both.
    successor: "_CachedBranchPlans | None" = None
    #: the plans' anti-join nodes (:func:`~.physical.joins.pruning_nodes`)
    pruning: list = field(init=False)

    def __post_init__(self):
        self.pruning = pruning_nodes(self.all_plans())

    @property
    def statement_count(self) -> int:
        return 1 + len(self.computed)

    def all_plans(self) -> list:
        return [plan for _, plan in self.computed] + [self.statement_plan]

    def pruned_total(self) -> int:
        """Rows the plans' anti-joins pruned over all their executions —
        a free byproduct the loop diffs per iteration."""
        return sum(node.pruned_total for node in self.pruning)


class StatementPlans:
    """One statement's plans, kept by the engine across calls as a PSM
    procedure's are (docs/optimizer.md, "Plans across statements").
    ``plans`` maps the ``id()`` of an AST node of ``statement`` (held, so
    the id stays unique) to what was compiled for it; ``slots`` holds the
    CTE results, ``loop_slots`` each recursive CTE's branch / COMPUTED BY
    slot pair — all emptied after each run."""

    def __init__(self, statement: Statement, mode: str, analyzes: int = 0):
        self.statement = statement
        self.mode = mode
        self.analyzes = analyzes
        self.plans: dict[int, object] = {}
        self.slots: dict = {}
        self.loop_slots: dict[int, tuple[dict, dict]] = {}
        #: id(cte) -> the recursive relation's (name, type) pairs
        self.schemas: dict[int, tuple] = {}
        #: id(cte) -> a with+ UNION's proven binding, "delta" or "full"
        self.bindings: dict[int, str] = {}
        #: id(cte) -> whether a union-by-update delta's keys are distinct
        #: by proof (:func:`delta_keys_are_distinct`)
        self.distinct_keys: dict[int, bool] = {}
        self._scans: dict[int, list] = {}
        self._branches: dict[int, tuple] = {}

    def recursive(self) -> bool:
        """True for a WITH statement with a recursive CTE."""
        return isinstance(self.statement, WithStatement) and any(
            self.branches(cte)[1] for cte in self.statement.ctes)

    def branches(self, cte: CommonTableExpression
                 ) -> tuple[list[CteBranch], list[CteBranch]]:
        """*cte*'s ``(initial, recursive)`` branches, split once
        (:func:`split_branches` walks every branch for references)."""
        split = self._branches.get(id(cte))
        if split is None:
            split = self._branches[id(cte)] = split_branches(cte)
        return split

    def plan(self, statement: Statement, database, policy, slots: dict):
        """``(plan, compiled)``: the kept plan of *statement*, a query of
        this entry's statement, or a new one against *slots*, kept."""
        plan = self.plans.get(id(statement))
        if plan is not None:
            return plan, False
        plan = QueryRunner(database, policy, slots).plan(statement)
        self.store(id(statement), plan, [plan])
        return plan, True

    def store(self, key: int, item, plans) -> None:
        """Keep *item* for AST node ``key``; *plans* are its plan roots,
        whose table scans are noted with the table sizes they saw."""
        self.plans[key] = item
        scans = self._scans[key] = []
        stack = list(plans)
        while stack:
            node = stack.pop()
            if isinstance(node, (TableScan, IndexOrderedScan)):
                scans.append((node.table.name, node, len(node.table)))
            stack.extend(node.children())

    def reset(self) -> None:
        self.plans.clear()
        self._scans.clear()
        self.bindings.clear()
        self.distinct_keys.clear()

    def release(self) -> None:
        """Drop every relation the slots hold."""
        self.slots.clear()
        for pair in self.loop_slots.values():
            for slots in pair:
                slots.clear()

    def stale(self, database, analyzes: int, factor: float) -> str | None:
        """Why the plans may no longer be used, or None."""
        if analyzes != self.analyzes:
            return "analyze"
        for scans in self._scans.values():
            for name, node, rows in scans:
                try:
                    current = database.table(name)
                except CatalogError:
                    return "replaced"
                if current is not node.table or (
                        isinstance(node, IndexOrderedScan)
                        and current.indexes.get(node.index_name)
                        is not node.index):
                    return "replaced"
                if _cardinality_drifted(rows, len(current), factor):
                    return "drift"
        return None


class PlanCache:
    """The engine's entries, least recently used first, keyed by the
    statement object (compared with ``is``) and the with/with+ mode."""

    def __init__(self):
        #: ANALYZE statements run so far; an entry planned before the
        #: latest one is stale.
        self.analyzes = 0
        self._entries: OrderedDict[tuple[int, str], StatementPlans] = \
            OrderedDict()

    def take(self, statement: Statement, mode: str, database,
             factor: float) -> tuple[StatementPlans, str | None]:
        """Remove and return the statement's entry, or a new one and why
        the kept one was stale; a run that fails never puts it back."""
        entry = self._entries.pop((id(statement), mode), None)
        reason = None
        if entry is not None and entry.statement is statement:
            reason = entry.stale(database, self.analyzes, factor)
            if reason is None:
                return entry, None
        return StatementPlans(statement, mode, self.analyzes), reason

    def put(self, entry: StatementPlans) -> None:
        self._entries[(id(entry.statement), entry.mode)] = entry
        while len(self._entries) > PLAN_CACHE_SIZE:
            self._entries.popitem(last=False)


# -- execution ---------------------------------------------------------------------


class RecursiveExecutor:
    """Runs a full WITH statement, recursive CTEs included."""

    def __init__(self, database: Database, dialect: Dialect,
                 policy: PlannerPolicy, mode: str = "with+",
                 ubu_strategy: str | None = None,
                 temp_indexes: dict[str, Sequence[str]] | None = None,
                 analyze: bool = False, telemetry=None,
                 warm_start: dict[str, WarmStart] | None = None,
                 plans: StatementPlans | None = None):
        if mode not in ("with", "with+"):
            raise ValueError(f"mode must be 'with' or 'with+', not {mode!r}")
        self.database = database
        self.dialect = dialect
        self.policy = policy
        self.mode = mode
        self.ubu_strategy = ubu_strategy or dialect.default_union_by_update
        if not dialect.supports_union_by_update(self.ubu_strategy):
            raise FeatureNotSupportedError(
                dialect.name, f"union-by-update strategy {self.ubu_strategy}")
        self.temp_indexes = dict(temp_indexes or {})
        #: When True, the branch plans, their COMPUTED BY feeders and the
        #: final body are recorded; totals accumulate across every loop
        #: iteration and are rendered by :meth:`analysis_report`.
        self.analyze = analyze
        #: The engine's :class:`repro.observability.Telemetry`, when run
        #: through one.  Tracing or profiling records the same plans the
        #: analyze path does, so traces carry per-operator spans.
        self.telemetry = telemetry
        self.tracer = telemetry.tracer if telemetry is not None else None
        #: The statement's recording (None: nothing watches): the plans
        #: run exactly as they would unwatched, kept plans included.
        self.sink = StatsSink() if analyze or (
            telemetry is not None
            and (telemetry.tracing or telemetry.profiling)) else None
        #: (title, plan, stats) per recorded plan, in first-execution
        #: order — the engine grafts these into the trace
        self.observed: list[tuple[str, object, StatsSink]] = []
        #: Warm starts: lowercase recursive-CTE name → :class:`WarmStart`,
        #: whose seed is used *instead of* evaluating the CTE's initial
        #: branches.  The streaming layer passes a prior fixpoint (with
        #: the batch's resets applied) and the keys the batch touched;
        #: the recursive loop then iterates from the seed exactly as it
        #: would from the initial queries, so a seed that is already a
        #: fixpoint converges in one iteration.
        self.warm_start = {name.lower(): start
                           for name, start in (warm_start or {}).items()}
        #: The statement's plans, kept by the engine between calls (a new
        #: entry when none is passed); queries plan against its slots.
        self.plans = plans
        #: Wall seconds spent compiling plans (initial queries, cached and
        #: fresh branch plans, the final body) — the engine reports this as
        #: the recursive statement's "plan" phase.
        self.plan_seconds = 0.0
        #: (table, its statistics version, its rows as a set) as of the
        #: last UNION combine — see :meth:`_seen_rows`.
        self._union_seen: tuple | None = None
        #: Its array twin: (table, version, key packing, the set of the
        #: rows' packed keys — a bitmap or sorted keys) — see
        #: :meth:`_seen_keys`.
        self._union_keys: tuple | None = None
        #: (a delta schema, the table schema, the delta schema under the
        #: table's column names) — see :meth:`_aligned`.
        self._renamed: tuple | None = None

    def _span(self, name: str, **attrs):
        """A tracer span when tracing is on, else a free null context."""
        if self.tracer is not None and self.tracer.enabled:
            return self.tracer.span(name, **attrs)
        return nullcontext(None)

    def _watch(self, title: str, plan) -> None:
        """Record *plan* from its first execution in this statement on,
        when the statement is recorded."""
        if self.sink is not None and self.sink.watch(plan):
            annotate_estimates(plan, self.policy)
            self.observed.append((title, plan, self.sink))

    # -- top level -------------------------------------------------------------

    def execute(self, statement: WithStatement) -> WithExecutionResult:
        if self.plans is None or self.plans.statement is not statement:
            self.plans = StatementPlans(statement, self.mode)
        outer = self.plans.slots
        stats = WithExecutionResult(relation=Relation.from_pairs((), ()))
        created_temp_names: list[str] = []
        with recording(self.sink):
            try:
                for cte in statement.ctes:
                    if self.plans.branches(cte)[1]:
                        result = self._run_recursive_cte(cte, stats)
                    else:
                        result = self._run_plain_cte(cte, stats)
                    outer[cte.name.lower()] = result
                    created_temp_names.append(cte.name)
                body_plan = self._planned(statement.body, outer, stats)
                self._watch("final body", body_plan)
                stats.relation = body_plan.execute()
                return stats
            finally:
                self.plans.release()
                self._cleanup(created_temp_names)

    def _planned(self, statement: Statement, slots: dict[str, Relation],
                 stats: WithExecutionResult):
        """The kept plan of a query, or a new one against *slots*."""
        started = time.perf_counter()
        plan, compiled = self.plans.plan(statement, self.database,
                                         self.policy, slots)
        if compiled:
            self.plan_seconds += time.perf_counter() - started
            stats.plans_compiled += 1
        else:
            stats.plan_cache_hits += 1
        return plan

    def _cleanup(self, names: list[str]) -> None:
        for name in names:
            if self.database.exists(name) and self.database.table(name).temporary:
                self.database.drop_table(name)

    def analysis_report(self, result: WithExecutionResult | None = None) -> str:
        """The EXPLAIN ANALYZE report for an ``analyze=True`` run.

        One annotated plan tree per recorded plan (cached recursive
        branch plans, their COMPUTED BY feeders, and the final body).
        Because cached plans execute once per iteration, their operator
        totals cover *all* iterations of the with+ loop.
        """
        if not self.analyze:
            raise ExecutionError("executor was not created with analyze=True")
        sections: list[str] = []
        if result is not None:
            header = (f"iterations={result.iterations}"
                      f" plans_compiled={result.plans_compiled}"
                      f" plan_cache_hits={result.plan_cache_hits}"
                      f" replans={result.replans}"
                      f" steps={result.steps}")
            if result.binding:
                shown = list(result.binding.values()) \
                    if len(result.binding) == 1 else \
                    [f"{name}:{choice}" for name, choice
                     in result.binding.items()]
                header += " binding=" + ",".join(shown)
            sections.append(header)
        for title, plan, plan_stats in self.observed:
            sections.append(f"{title}:\n{render_analysis(plan, plan_stats)}")
        return "\n\n".join(sections)

    def _run_plain_cte(self, cte: CommonTableExpression,
                       stats: WithExecutionResult) -> Relation:
        if len(cte.branches) != 1 or cte.branches[0].computed_by:
            raise PlanError(
                f"non-recursive CTE {cte.name!r} must be a single plain query")
        result = self._planned(cte.branches[0].statement, self.plans.slots,
                               stats).execute()
        if cte.columns:
            result = result.rename_columns(cte.columns)
        return result

    # -- recursive CTE ------------------------------------------------------------

    def _run_recursive_cte(self, cte: CommonTableExpression,
                           stats: WithExecutionResult) -> Relation:
        entry = self.plans
        initial, recursive = entry.branches(cte)
        validate_withplus(cte, recursive)
        if cte.search_clause is not None or cte.cycle_clause is not None:
            return self._run_search_cycle_cte(cte, stats)
        if self.mode == "with":
            check_sql99_restrictions(cte, self.dialect)
        if not initial:
            raise PlanError(f"recursive CTE {cte.name!r} has no initial query")

        outer = entry.slots
        warm = self.warm_start.get(cte.name.lower())
        frontier = None
        if warm is not None:
            # Warm start: the caller's seed stands in for the initial
            # queries.  Everything downstream (temp table, the loop) is
            # unchanged — the fixpoint is simply resumed from the seed
            # instead of derived from zero — but for round 1, which may
            # step over the frontier's rows.
            current = warm.seed
            if warm.frontier is not None:
                frontier = np.asarray(warm.frontier, dtype=np.int64)
        else:
            current = self._planned(initial[0].statement, outer,
                                    stats).execute()
            for branch in initial[1:]:
                extra = self._planned(branch.statement, outer,
                                      stats).execute()
                if cte.union_kind is UnionKind.UNION_ALL:
                    current = current.union_all(extra)
                else:
                    current = current.union(extra)
        if cte.columns:
            current = current.rename_columns(cte.columns)
        shape = tuple((column.name.lower(), column.sql_type)
                      for column in current.schema.columns)
        if entry.schemas.setdefault(id(cte), shape) != shape:
            # A seed of another schema than the plans read R with.
            entry.reset()
            entry.schemas[id(cte)] = shape
            stats.replanned("schema")

        table = self.database.create_temp_table(cte.name, current.schema,
                                                replace=True)
        table.insert_relation(current)
        self._maybe_index(table)
        # A union-by-update delta grouped on the key skips consolidation.
        distinct_keys = False
        update = None
        stepped_any = False
        if cte.union_kind is UnionKind.UNION_BY_UPDATE:
            distinct_keys = entry.distinct_keys.get(id(cte))
            if distinct_keys is None:
                distinct_keys = entry.distinct_keys[id(cte)] = \
                    delta_keys_are_distinct(cte, table.schema)
            if getattr(self.policy, "delta_binding", False) \
                    and self.ubu_strategy == "full_outer_join":
                binding = entry.bindings.get(id(cte))
                if binding is None:
                    binding = entry.bindings[id(cte)] = (
                        "delta" if delta_update_is_exact(cte, table.schema)
                        else "full")
                if binding == "delta":
                    update = DeltaUpdate(cte.name, table.schema,
                                          cte.update_key[0])

        limit = cte.maxrecursion
        cap = limit if limit is not None else DEFAULT_RECURSION_CAP
        iteration = 0
        hit_limit = False
        computed_names: set[str] = set()
        # Binding semantics for the recursive relation R:
        #
        # * COMPUTED BY definitions always read the full current R — that is
        #   what Algorithm 1's temp table provides and what TopoSort's
        #   ``max(L)`` / anti-joins require.
        # * UNION ALL branch statements read the previous step's rows (the
        #   SQL'99 *semi-naive* working table): full-relation binding would
        #   re-derive every old row each round and diverge.
        # * UNION in plain ``with`` mode is semi-naive too (how PostgreSQL
        #   executes it); in with+ mode it reads the full relation — the
        #   paper's Exp-C distinguishes exactly these two TC evaluations —
        #   unless the policy may prove the delta rule exact: then, from
        #   iteration 2 on, it reads the last round's new rows when
        #   delta_binding_is_exact() holds (decided once per entry).
        # * UNION BY UPDATE reads the full relation (value updates need it)
        #   on the reference profile.  When the policy may prove the delta
        #   rule and delta_update_is_exact() holds (decided once per
        #   entry), a round from iteration 2 on may instead read only the
        #   rows the last round changed (DeltaUpdate.step), writing just
        #   the values it improves; a round it cannot prove runs the plan.
        #   Round 1 of a warm start with a frontier steps over the
        #   frontier's rows when the statement's plan is kept already.
        if cte.union_kind is UnionKind.UNION_ALL:
            semi_naive = True
        elif cte.union_kind is UnionKind.UNION:
            semi_naive = self.mode == "with"
        else:
            semi_naive = False
        prove = cte.union_kind is UnionKind.UNION and not semi_naive \
            and getattr(self.policy, "delta_binding", False)
        # A keyed union-by-update R keeps its key vector from iteration to
        # iteration once every key is in it, so its cached branch plans
        # keep their key plans (probe pairs, groupings) between executions.
        key_plans = cte.union_kind is UnionKind.UNION_BY_UPDATE \
            and bool(cte.update_key)
        working = current  # only consulted on the semi-naive path
        rname = cte.name.lower()
        # The entry's live slot dicts backing the plans' BindingScans.  Two
        # views of R: branch statements may see the semi-naive working
        # set, COMPUTED BY definitions always see the full snapshot.
        branch_slots, computed_slots = entry.loop_slots.setdefault(
            id(cte), ({}, {}))
        branch_slots.update(outer)
        computed_slots.update(outer)
        # The entry's branch plans are the ones compiled at iteration 1.
        cached: list[_CachedBranchPlans | None] = [
            entry.plans.get(id(b)) for b in recursive]
        # Iteration-adaptive replanning (cost-based policies): each cached
        # plan remembers the R cardinality it was compiled against; when
        # the loop's live cardinality drifts past REPLAN_FACTOR in either
        # direction, the cached plan's estimates (and hence its build-side
        # and operator choices) are stale — take its successor, the plans
        # an earlier run compiled at that point, when R fits those, else
        # replan against the current bindings and keep the new plans as
        # the successor.
        adaptive = getattr(self.policy, "adaptive", False)
        drifted: list[_CachedBranchPlans | None] = [None] * len(recursive)
        # Cumulative anti-join pruned totals already attributed per cached
        # branch plan; the per-iteration value is the delta against these.
        pruned_seen = [c.pruned_total() if c else 0 for c in cached]
        while True:
            if iteration >= cap:
                if limit is None:
                    raise RecursionLimitError(cap)
                hit_limit = True
                break
            iteration += 1
            started = time.perf_counter()
            deltas: list[Relation] = []
            branch_seconds: list[float] = []
            antijoin_pruned = 0
            with self._span("iteration", index=iteration) as iter_span:
                stepped = None
                if update is not None:
                    if iteration == 1:
                        update.begin(table, 1)  # the -0.0 proof's seed
                        if frontier is not None:
                            update.changed = _frontier_rows(
                                table, update.key, frontier)
                    if cached[0] is not None and update.changed is not None:
                        stepped = update.step(table, cached[0])
                    if stepped is None:
                        if iteration > 1:
                            update.begin(table, iteration)
                    else:
                        stats.plan_cache_hits += cached[0].statement_count
                        stats.steps += 1
                        branch_seconds.append(time.perf_counter() - started)
                if stepped is None:
                    snapshot = table.snapshot()
                    branch_slots[rname] = working if semi_naive else snapshot
                    computed_slots[rname] = snapshot
                for position, branch in enumerate(
                        recursive if stepped is None else ()):
                    branch_started = time.perf_counter()
                    kept = cached[position]
                    rows = len(branch_slots[rname])
                    if adaptive and kept is not None and _cardinality_drifted(
                            kept.planned_input, rows,
                            CostBasedPolicy.REPLAN_FACTOR):
                        successor = kept.successor
                        if successor is not None and not _cardinality_drifted(
                                successor.planned_input, rows,
                                CostBasedPolicy.REPLAN_FACTOR):
                            cached[position] = successor
                            pruned_seen[position] = successor.pruned_total()
                        else:
                            cached[position] = None
                            drifted[position] = kept
                            pruned_seen[position] = 0
                            stats.replanned("drift")
                    with self._span("branch", position=position):
                        if cached[position] is None:
                            delta, compiled = self._plan_and_run_branch(
                                branch, branch_slots, computed_slots,
                                computed_names, key_plans)
                            compiled.planned_input = rows
                            cached[position] = compiled
                            if iteration == 1:
                                entry.store(id(branch), compiled,
                                            compiled.all_plans())
                            elif drifted[position] is not None:
                                drifted[position].successor = compiled
                            stats.plans_compiled += compiled.statement_count
                            total = compiled.pruned_total()
                            antijoin_pruned += total - pruned_seen[position]
                            pruned_seen[position] = total
                        else:
                            delta = self._run_cached_branch(
                                cached[position], branch_slots, computed_slots,
                                computed_names)
                            stats.plan_cache_hits += \
                                cached[position].statement_count
                            total = cached[position].pruned_total()
                            antijoin_pruned += total - pruned_seen[position]
                            pruned_seen[position] = total
                    deltas.append(delta)
                    branch_seconds.append(
                        time.perf_counter() - branch_started)
                if stepped is not None:
                    combine_counts, delta_rows = stepped
                    changed = combine_counts.changed
                    stepped_any = True
                else:
                    changed, working, combine_counts = self._combine(
                        cte, table, snapshot, deltas, distinct_keys)
                    delta_rows = sum(len(d) for d in deltas)
                    if update is not None:
                        update.end(table)
                table = self.database.table(cte.name)  # drop/alter may swap it
                if prove and iteration == 1:
                    binding = entry.bindings.get(id(cte))
                    if binding is None:
                        binding = entry.bindings[id(cte)] = (
                            "delta" if delta_binding_is_exact(
                                cte, table.schema, [d.schema for d in deltas])
                            else "full")
                    semi_naive = binding == "delta"
                elapsed = time.perf_counter() - started
                if iter_span is not None:
                    iter_span.attrs.update(
                        delta_rows=delta_rows, total_rows=len(table),
                        inserted=combine_counts.inserted,
                        overwritten=combine_counts.overwritten,
                        antijoin_pruned=antijoin_pruned)
            inserted, overwritten = (combine_counts.inserted,
                                     combine_counts.overwritten)
            stats.per_iteration.append(IterationStat(
                iteration=iteration,
                delta_rows=delta_rows,
                total_rows=len(table),
                seconds=elapsed,
                inserted=inserted,
                overwritten=overwritten,
                pruned=max(0, delta_rows - inserted - overwritten),
                antijoin_pruned=antijoin_pruned,
                branch_seconds=tuple(branch_seconds),
                binding="delta" if stepped is not None
                or (semi_naive and iteration > 1) else "full"))
            if len(table) > DEFAULT_ROW_CAP:
                raise RecursionLimitError(DEFAULT_ROW_CAP)
            if not changed:
                break
        stats.iterations = iteration
        stats.hit_maxrecursion = hit_limit
        stats.binding[cte.name] = "delta" if semi_naive or stepped_any \
            else "full"
        for name in computed_names:
            if self.database.exists(name):
                self.database.drop_table(name)
        return table.snapshot()

    # -- SEARCH / CYCLE (Oracle's looping control, Table 1 section E) --------

    def _run_search_cycle_cte(self, cte: CommonTableExpression,
                              stats: WithExecutionResult) -> Relation:
        """Row-provenance evaluation for SEARCH / CYCLE clauses.

        Oracle tracks, per derived row, its derivation path: CYCLE marks a
        row whose cycle-column values already occurred among its ancestors
        (and stops expanding it); SEARCH exposes the breadth- or
        depth-first derivation order as a sequence column.  Set-at-a-time
        evaluation loses that provenance, so this path expands one working
        row at a time — exact semantics, meant for the modest recursion
        sizes these clauses serve.  The branch is planned once, over a
        slot re-pointed at each working row.
        """
        for clause, feature in ((cte.search_clause, "search_clause"),
                                (cte.cycle_clause, "cycle_clause")):
            if clause is not None and \
                    not self.dialect.supports_with_feature(feature):
                raise FeatureNotSupportedError(
                    self.dialect.name, feature.replace("_", " "))
        initial, recursive = split_branches(cte)
        if len(recursive) != 1 or recursive[0].computed_by \
                or cte.union_kind is not UnionKind.UNION_ALL:
            raise PlanError(
                "SEARCH/CYCLE require a single plain UNION ALL recursive"
                " subquery")
        branch = recursive[0]
        if statement_references(branch.statement, cte.name) != 1:
            raise PlanError("SEARCH/CYCLE require linear recursion")

        outer = self.plans.slots
        current = self._planned(initial[0].statement, outer, stats).execute()
        for extra_branch in initial[1:]:
            current = current.union_all(
                self._planned(extra_branch.statement, outer, stats).execute())
        if cte.columns:
            current = current.rename_columns(cte.columns)
        schema = current.schema

        cycle = cte.cycle_clause
        search = cte.search_clause
        cycle_idx = [schema.index_of(c) for c in cycle.columns] \
            if cycle else []

        # rows[i] = (row, parent_index, depth, ancestor_keys, is_cycle)
        rows: list[tuple] = []
        working: list[int] = []
        for row in current.rows:
            key = tuple(row[i] for i in cycle_idx) if cycle else None
            path = frozenset([key]) if cycle else frozenset()
            rows.append((row, None, 0, path, False))
            working.append(len(rows) - 1)

        row_slots, _ = self.plans.loop_slots.setdefault(id(cte), ({}, {}))
        row_slots.update(outer)
        rname = cte.name.lower()
        cap = cte.maxrecursion if cte.maxrecursion is not None \
            else DEFAULT_RECURSION_CAP
        iteration = 0
        while working:
            if iteration >= cap:
                if cte.maxrecursion is None:
                    raise RecursionLimitError(cap)
                stats.hit_maxrecursion = True
                break
            iteration += 1
            started = time.perf_counter()
            next_working: list[int] = []
            produced = 0
            for index in working:
                parent_row, _, depth, path, _ = rows[index]
                row_slots[rname] = Relation(schema, [parent_row])
                plan = self._planned(branch.statement, row_slots, stats)
                self._watch("recursive branch", plan)
                for child in plan.execute().rows:
                    produced += 1
                    if cycle:
                        key = tuple(child[i] for i in cycle_idx)
                        is_cycle = key in path
                        child_path = path | {key}
                    else:
                        is_cycle = False
                        child_path = path
                    rows.append((child, index, depth + 1, child_path,
                                 is_cycle))
                    if not is_cycle:
                        next_working.append(len(rows) - 1)
            stats.per_iteration.append(IterationStat(
                iteration=iteration, delta_rows=produced,
                total_rows=len(rows),
                seconds=time.perf_counter() - started))
            working = next_working
        stats.iterations = iteration
        stats.binding[cte.name] = "delta"

        order = self._search_order(rows, schema, search)
        out_columns = list(schema.columns)
        out_rows: list[tuple] = []
        if search is not None:
            out_columns.append(Column(search.set_column, SqlType.INTEGER))
        if cycle is not None:
            out_columns.append(Column(cycle.set_column, SqlType.TEXT))
        for rank, index in enumerate(order, start=1):
            row, _, _, _, is_cycle = rows[index]
            extended = row
            if search is not None:
                extended = extended + (rank,)
            if cycle is not None:
                extended = extended + (
                    cycle.cycle_value if is_cycle else cycle.default_value,)
            out_rows.append(extended)
        return Relation(Schema(tuple(out_columns)), out_rows)

    @staticmethod
    def _search_order(rows: list[tuple], schema,
                      search) -> list[int]:
        """Indices of *rows* in SEARCH order (insertion order when absent)."""
        if search is None:
            return list(range(len(rows)))
        by_idx = [schema.index_of(c) for c in search.by]

        def by_key(index: int):
            return tuple(rows[index][0][i] for i in by_idx)

        if search.order == "breadth":
            return sorted(range(len(rows)),
                          key=lambda i: (rows[i][2], by_key(i), i))
        # depth-first: pre-order over the derivation forest
        children: dict[int | None, list[int]] = {}
        for index, entry in enumerate(rows):
            children.setdefault(entry[1], []).append(index)
        for kids in children.values():
            kids.sort(key=lambda i: (by_key(i), i))
        order: list[int] = []
        stack = list(reversed(children.get(None, [])))
        while stack:
            index = stack.pop()
            order.append(index)
            stack.extend(reversed(children.get(index, [])))
        return order

    def _plan_and_run_branch(self, branch: CteBranch,
                             branch_slots: dict[str, Relation],
                             computed_slots: dict[str, Relation],
                             computed_names: set[str], key_plans: bool
                             ) -> tuple[Relation, _CachedBranchPlans]:
        """A branch's first iteration, or one past a drift: compile each
        statement against the live slots, run it, and keep the plans for
        reuse — with their key plans too when *key_plans*."""
        computed_plans = []
        for definition in branch.computed_by:
            runner = QueryRunner(self.database, self.policy, computed_slots)
            started = time.perf_counter()
            plan = runner.plan(definition.statement)
            self.plan_seconds += time.perf_counter() - started
            if key_plans:
                keep_key_plans(plan)
            self._watch(f"computed by {definition.name}", plan)
            computed_plans.append((definition, plan))
            self._fill_computed(definition, plan, branch_slots,
                                computed_slots, computed_names)
        runner = QueryRunner(self.database, self.policy, branch_slots)
        started = time.perf_counter()
        statement_plan = runner.plan(branch.statement)
        self.plan_seconds += time.perf_counter() - started
        if key_plans:
            keep_key_plans(statement_plan)
        self._watch("recursive branch", statement_plan)
        return (statement_plan.execute(),
                _CachedBranchPlans(computed_plans, statement_plan))

    def _run_cached_branch(self, entry: _CachedBranchPlans,
                           branch_slots: dict[str, Relation],
                           computed_slots: dict[str, Relation],
                           computed_names: set[str]) -> Relation:
        """Subsequent iterations: re-execute the cached plans; the live
        slots already point at this iteration's R."""
        for definition, plan in entry.computed:
            self._watch(f"computed by {definition.name}", plan)
            self._fill_computed(definition, plan, branch_slots,
                                computed_slots, computed_names)
        self._watch("recursive branch", entry.statement_plan)
        return entry.statement_plan.execute()

    def _fill_computed(self, definition, plan, branch_slots, computed_slots,
                       computed_names: set[str]) -> None:
        result = plan.execute()
        if definition.columns:
            result = result.rename_columns(definition.columns)
        aux = self.database.create_temp_table(definition.name, result.schema,
                                              replace=True)
        aux.insert_relation(result)
        self._maybe_index(aux)
        computed_names.add(definition.name)
        view = aux.snapshot()
        computed_slots[definition.name.lower()] = view
        branch_slots[definition.name.lower()] = view

    def _combine(self, cte: CommonTableExpression, table: Table,
                 snapshot: Relation, deltas: list[Relation],
                 distinct_keys: bool = False
                 ) -> tuple[bool, Relation, UpdateCounts]:
        """Fold the deltas into the recursive table.

        Returns ``(changed, working, counts)`` where *working* is the
        relation the next semi-naive step should see (the genuinely new
        rows) and *counts* records what the combine actually wrote.
        *distinct_keys* is :func:`delta_keys_are_distinct`'s verdict for
        a union-by-update CTE.
        """
        if cte.union_kind is UnionKind.UNION_ALL:
            added = 0
            combined: list[tuple] = []
            for delta in deltas:
                added += table.insert_relation(delta)
                combined.extend(delta.rows)
            working = Relation(table.schema, combined)
            return added > 0, working, UpdateCounts(inserted=added)
        if cte.union_kind is UnionKind.UNION:
            combined = self._union_arrays(table, deltas)
            if combined is not None:
                return combined
            existing = self._seen_rows(table)
            # Candidates dedup (first-seen order) on the tuples as the
            # branches produced them; the seen-set takes them as the
            # table stored them.
            produced = dict.fromkeys(
                chain.from_iterable(delta.rows for delta in deltas))
            pending = [row for row in produced if row not in existing]
            fresh: list[tuple] = []
            if pending:
                table.insert_many(pending)
                fresh = table.rows[len(table) - len(pending):]
                existing.update(fresh)
            self._union_seen = (table, table.statistics.version, existing)
            working = Relation.from_trusted_rows(table.schema, fresh)
            return bool(fresh), working, UpdateCounts(inserted=len(fresh))
        # union by update — single delta guaranteed by validate_withplus
        (delta,) = deltas
        if delta.schema.arity == table.schema.arity:
            delta = delta.with_schema(self._aligned(delta.schema, table))
        counts = UpdateCounts()
        new_table = apply_union_by_update(self.database, table, delta,
                                          cte.update_key, self.ubu_strategy,
                                          counts=counts,
                                          distinct_keys=distinct_keys)
        self._maybe_index(new_table)
        after = new_table.snapshot()
        if counts.changed is not None:
            return counts.changed, after, counts
        return after != snapshot, after, counts

    def _aligned(self, schema: Schema, table: Table) -> Schema:
        """*schema* with *table*'s column names — renamed once per
        statement while the branch plan hands on the same schema."""
        kept = self._renamed
        if kept is None or kept[0] is not schema or kept[1] is not table.schema:
            renamed = schema.rename_columns(table.schema.names)
            kept = self._renamed = (schema, table.schema, renamed)
        return kept[2]

    def _seen_rows(self, table: Table) -> set[tuple]:
        """The table's rows as a set — the one the last UNION combine left
        behind while that combine is still the table's last mutation."""
        seen = self._union_seen
        if seen is not None and seen[0] is table \
                and seen[1] == table.statistics.version:
            return seen[2]
        return set(table.rows)

    def _union_arrays(self, table: Table, deltas: list[Relation]
                      ) -> tuple[bool, Relation, UpdateCounts] | None:
        """The UNION combine on packed keys, or None — before touching
        anything — unless the table is columnar with INTEGER columns only
        and no key constraint or index, and every delta is batch-backed
        with an int64 view of every column (so stored rows are the
        produced ones).

        Same contents, row order and counts as the set path: candidate
        rows are tested against the set of the table's packed keys, kept
        across iterations (:meth:`_seen_keys`); those not found dedup
        first-seen (:func:`~.physical.blocks.distinct_first`, in position
        order), are appended to the store as vectors and then join the
        set.
        """
        arity = table.schema.arity
        if table.storage != "columnar" or table.enforce_key \
                or table.indexes or any(column.sql_type is not SqlType.INTEGER
                                        for column in table.schema.columns):
            return None
        parts: list[list] = [[] for _ in range(arity)]
        for delta in deltas:
            if delta.batch is None or delta.schema.arity != arity:
                return None
            for j in range(arity):
                vector = delta.batch.array(j)
                if not _is_int64(vector):
                    return None
                parts[j].append(vector.data)
        candidates = [ArrayVector(np.concatenate(p)) for p in parts]
        seen = self._seen_keys(table, candidates)
        if seen is None:
            return None
        packing, kept, packed = seen
        unknown = np.flatnonzero(~key_set_member(packed, kept))
        keys, first = distinct_first(packed[unknown])
        fresh = unknown[np.sort(first)]  # first-seen order
        if len(fresh):
            working = Relation.from_batch(table.schema, ArrayColumns(
                [vector.take(fresh) for vector in candidates]))
            table.insert_relation(working)
            kept = key_set_add(kept, keys)  # only once the insert stood
        else:
            working = Relation.from_trusted_rows(table.schema, ())
        self._union_keys = (table, table.statistics.version, packing, kept)
        return bool(len(fresh)), working, UpdateCounts(inserted=len(fresh))

    def _seen_keys(self, table: Table, candidates: list
                   ) -> tuple | None:
        """``(packing, the set of the table's packed keys, the candidates'
        packed keys)``: the set the last UNION combine left behind while
        it is still the table's last mutation and the candidates fit its
        packing, else packed afresh over table and candidates together —
        or None when a table column has no int64 view or the pair does not
        pack.  The set is a bitmap over the packed key space when that
        fits :data:`~.physical.blocks._BITMAP_LIMIT`, else the sorted keys
        (:func:`~.physical.blocks.key_set`)."""
        kept = self._union_keys
        if kept is not None and kept[0] is table \
                and kept[1] == table.statistics.version:
            packed = pack_keys(candidates, kept[2])
            if packed is not None and not (packed[0] < 0).any():
                return kept[2], kept[3], packed[0]
        stored = [table.rows.array(j) for j in range(table.schema.arity)]
        if not all(map(_is_int64, stored)):
            return None
        packed = pack_keys([
            ArrayVector(np.concatenate((old.data, new.data)))
            for old, new in zip(stored, candidates)])
        if packed is None:
            return None
        keys, packing = packed
        rows = len(table)
        return packing, key_set(keys[:rows], packing), keys[rows:]

    def _maybe_index(self, table: Table) -> None:
        columns = self.temp_indexes.get(table.name) \
            or self.temp_indexes.get(table.name.lower())
        if not columns:
            return
        index_name = f"ix_{table.name}"
        if index_name in table.indexes:
            # Write paths maintain existing indexes; no rebuild needed.
            return
        table.create_index(index_name, list(columns), kind="btree")
