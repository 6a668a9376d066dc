"""The public engine facade.

``Engine`` glues the pieces together: parse SQL text, route plain queries
through :class:`~repro.relational.sql.compiler.QueryRunner`, route
recursive ``with``/``with+`` statements through
:class:`~repro.relational.recursive.RecursiveExecutor`, and expose EXPLAIN
and SQL/PSM translation.

An engine runs one of two profiles.  ``Engine()`` is the array engine:
the cost-based planner over the batch operators and columnar storage.
``Engine(dialect, **REFERENCE_PROFILE)`` is the paper's modelled RDBMS:
the dialect's planner over iterator-model operators and row storage,
which the paper-figure benchmarks run and the differential tests compare
against.

    >>> from repro.relational import Engine
    >>> engine = Engine(dialect="oracle")
    >>> engine.database.load_edge_table("E", [(1, 2), (2, 3)])  # doctest: +ELLIPSIS
    <table E ...>
    >>> engine.execute("SELECT count(*) AS m FROM E").rows
    ((2,),)

Every engine carries a :class:`repro.observability.Telemetry` bundle.
Cheap accounting (phase wall times, the query log, plan/replan counters)
is always on; per-operator tracing is opt-in via ``Engine(telemetry="on")``
and adds parse → plan → optimize → execute spans with nested per-operator
children, exportable as JSON or Chrome trace events.
"""

from __future__ import annotations

import os
import time
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Sequence

from ..observability import (
    QueryTelemetry,
    Telemetry,
    record_plan,
    record_storage_metrics,
    resolve_telemetry,
    result_digest,
)
from .database import Database
from .dialects import Dialect, get_dialect
from .errors import (ExecutionError, FeatureNotSupportedError,
                     RelationalError)
from .optimizer import annotate_estimates
from .physical import StatsSink, explain_plan, recording, render_analysis
from .physical.blocks import ArrayColumns
from .planner import POLICIES, CostBasedPolicy, PlannerPolicy
from .psm import PsmProgram, translate_with_to_psm
from .recursive import (
    PlanCache,
    RecursiveExecutor,
    StatementPlans,
    WarmStart,
    WithExecutionResult,
)
from .relation import Relation
from .schema import Column, Schema, SqlType
from .sql.ast import AnalyzeStatement, Statement, WithStatement
from .sql.compiler import QueryRunner
from .sql.parser import parse_statement as _parse_statement

#: The engine's parser: one parse per distinct statement text.  The AST is
#: frozen dataclasses and tuples, so a statement text run again (a
#: streaming view's refresh, a benchmark loop) shares one tree; a parse
#: error raises on every call (exceptions are never cached).
parse_statement = lru_cache(maxsize=256)(_parse_statement)

#: Schema of the virtual ``__iterations__`` relation the engine refreshes
#: after every recursive statement (fixpoint introspection — queryable
#: with plain SELECTs).
ITERATIONS_SCHEMA = Schema((
    Column("iteration", SqlType.INTEGER),
    Column("delta_rows", SqlType.INTEGER),
    Column("total_rows", SqlType.INTEGER),
    Column("ms", SqlType.DOUBLE),
    Column("inserted", SqlType.INTEGER),
    Column("overwritten", SqlType.INTEGER),
    Column("pruned", SqlType.INTEGER),
    Column("antijoin_pruned", SqlType.INTEGER),
))

#: The reference profile: the paper's modelled RDBMS and the fuzzer's
#: oracle.  Iterator-model operators over row storage, planned by the
#: dialect's own policy, so the three dialects reproduce the paper's plan
#: shapes (merge joins, sort aggregates, nested loops).  ``Engine()``
#: without arguments runs the array engine instead; pass
#: ``Engine(dialect, **REFERENCE_PROFILE)`` wherever this configuration is
#: meant — the paper-figure benchmarks and the differential tests' other
#: side.
REFERENCE_PROFILE: Mapping[str, bool] = MappingProxyType({"reference": True})

#: What CPython's ``TypeError`` says when a rich comparison (``<``,
#: ``sorted``, ``min``) meets two values it cannot order.
_INCOMPARABLE = " not supported between instances of "


class Engine:
    """A single-session engine bound to a dialect profile.

    Parameters
    ----------
    dialect:
        ``"oracle"``, ``"db2"``, ``"postgres"``, or a :class:`Dialect`.
    database:
        An existing catalog to attach to; a fresh one by default.
    mode:
        ``"with+"`` (default) accepts the paper's enhanced recursion;
        ``"with"`` enforces the dialect's SQL'99 Table-1 restrictions.
    telemetry:
        ``"off"`` (default) keeps the always-on-cheap accounting only:
        phase timings, the query log, and engine counters.  ``"on"``
        additionally enables tracing — nested spans with per-operator
        timings, recorded at each operator's boundaries while the same
        plans run (``docs/observability.md``).  An
        existing :class:`repro.observability.Telemetry` may be passed to
        share one registry across several engines.  ``None`` (default)
        reads the ``REPRO_TELEMETRY`` environment variable, then
        ``"off"``.
    reference:
        ``False`` (default) is the array engine: the statistics-driven
        :class:`~repro.relational.planner.CostBasedPolicy` (cardinality
        estimation, join reordering, pushdown, cached build sides,
        iteration-adaptive replanning) building the batch operators of
        :mod:`repro.relational.physical.batch` (typed-array kernels inside
        their exactness envelope) over columnar storage (typed column
        vectors, or a row overlay where they cannot hold the values —
        ``docs/storage.md``).  ``True`` is :data:`REFERENCE_PROFILE`: the
        dialect's modelled planner policy, which reproduces the paper's
        per-dialect plans, building iterator-model operators over row
        storage.  Results are identical across the two profiles.  Tables
        the engine creates (the recursive loop's temp tables included)
        use the profile's storage, :attr:`storage`; an attached
        database's existing tables keep theirs.
    """

    def __init__(self, dialect: str | Dialect = "oracle",
                 database: Database | None = None, mode: str = "with+",
                 telemetry: str | bool | Telemetry | None = None,
                 reference: bool = False):
        self.dialect = (dialect if isinstance(dialect, Dialect)
                        else get_dialect(dialect))
        self.reference = reference
        self.database = database if database is not None else Database()
        # Tables created from here on (the recursive loop's temp tables
        # too) use the profile's storage; existing tables keep theirs.
        self.database.storage = self.storage
        self.policy: PlannerPolicy = (
            POLICIES[self.dialect.policy_name]() if reference
            else CostBasedPolicy())
        self.mode = mode
        self._plan_cache = PlanCache()
        self._ubu_strategy: str | None = None
        self.temp_indexes: dict[str, Sequence[str]] = {}
        if telemetry is None:
            telemetry = os.environ.get("REPRO_TELEMETRY") or "off"
        self.telemetry = resolve_telemetry(telemetry)
        # Planner policies count operator choices into the shared registry.
        self.policy.metrics = self.telemetry.metrics
        self._refreshes_seen = 0
        #: (title, plan, stats) triples from the current statement's
        #: recorded plans — the flight recorder renders these into
        #: est-vs-actual reports when it snapshots a bundle.
        self._observed: list[tuple[str, object, dict]] = []

    # -- configuration -----------------------------------------------------------

    @property
    def storage(self) -> str:
        """The profile's table storage: ``"rows"`` or ``"columnar"``."""
        return "rows" if self.reference else "columnar"

    @property
    def tracer(self):
        """The engine's :class:`repro.observability.Tracer`."""
        return self.telemetry.tracer

    @property
    def metrics(self):
        """The engine's :class:`repro.observability.MetricsRegistry`.

        Access refreshes the storage-layer gauges (index maintenance and
        columnar store counters live as table/store attributes between
        collections), so readers always see current values next to the
        operator metrics.
        """
        record_storage_metrics(self.telemetry.metrics, self.database)
        return self.telemetry.metrics

    @property
    def query_log(self):
        """The engine's :class:`repro.observability.QueryLog`."""
        return self.telemetry.query_log

    @property
    def union_by_update_strategy(self) -> str:
        return self._ubu_strategy or self.dialect.default_union_by_update

    @union_by_update_strategy.setter
    def union_by_update_strategy(self, strategy: str | None) -> None:
        if strategy is not None and \
                not self.dialect.supports_union_by_update(strategy):
            raise FeatureNotSupportedError(
                self.dialect.name, f"union-by-update strategy {strategy}")
        self._ubu_strategy = strategy

    def set_temp_indexes(self, indexes: dict[str, Sequence[str]]) -> None:
        """Columns to index (sorted index) on each temp table the recursive
        executor creates — the Fig 10 experiment's knob."""
        self.temp_indexes = dict(indexes)

    # -- execution ----------------------------------------------------------------

    def execute(self, sql: str | Statement, mode: str | None = None) -> Relation:
        """Run a statement and return its result relation."""
        return self.execute_detailed(sql, mode=mode).relation

    def execute_detailed(self, sql: str | Statement,
                         mode: str | None = None,
                         warm_start: dict[str, WarmStart] | None = None
                         ) -> WithExecutionResult:
        """Run a statement, returning per-iteration statistics for
        recursive queries (used by the Fig 12/13 benchmarks) with a
        ``.telemetry`` summary attached.

        *warm_start* maps recursive-CTE names to a :class:`WarmStart`,
        whose seed relation is used in place of their initial branches
        and whose frontier, when given, names the keys round 1 steps over
        — the streaming layer resumes a fixpoint from a prior result this
        way (see docs/streaming.md)."""
        tracer = self.telemetry.tracer
        phases: dict[str, float] = {}
        sql_text = sql if isinstance(sql, str) else type(sql).__name__
        self._observed = []
        total_started = time.perf_counter()
        try:
            with tracer.span("query", sql=sql_text,
                             storage=self.storage) as query_span:
                started = time.perf_counter()
                with tracer.span("parse"):
                    statement = (parse_statement(sql) if isinstance(sql, str)
                                 else sql)
                phases["parse"] = (time.perf_counter() - started) * 1000
                if isinstance(statement, AnalyzeStatement):
                    kind = "analyze"
                    started = time.perf_counter()
                    with tracer.span("execute"):
                        result = WithExecutionResult(
                            relation=self._run_analyze(statement))
                    phases["execute"] = \
                        (time.perf_counter() - started) * 1000
                else:
                    mode = mode or self.mode
                    plans, stale = self._take_plans(statement, mode)
                    if plans.recursive():
                        kind = "recursive"
                        result = self._execute_recursive(
                            statement, mode, plans, stale, tracer, phases,
                            query_span, warm_start=warm_start)
                    else:
                        kind = "select"
                        result = self._execute_plain(statement, plans, stale,
                                                     tracer, phases)
        except RelationalError as error:
            total_ms = (time.perf_counter() - total_started) * 1000
            self._record_failure(sql_text, total_ms, phases, error)
            raise
        except TypeError as error:
            # Comparison operators, sorts and min/max are the raw Python
            # ones, so comparing incomparable SQL values (text < int)
            # raises here, outside every per-row loop.  The message
            # names no operand: which pair meets first depends on the
            # plan, and every configuration must report the same error.
            if _INCOMPARABLE not in str(error):
                raise
            failure = ExecutionError(
                "cannot compare values of incomparable types")
            total_ms = (time.perf_counter() - total_started) * 1000
            self._record_failure(sql_text, total_ms, phases, failure)
            raise failure from error
        total_ms = (time.perf_counter() - total_started) * 1000
        self._record_query(sql_text, kind, total_ms, phases, result,
                           query_span)
        return result

    def _execute_recursive(self, statement: WithStatement, mode: str,
                           plans: StatementPlans, stale: str | None, tracer,
                           phases, query_span,
                           warm_start: dict[str, WarmStart] | None = None
                           ) -> WithExecutionResult:
        """The with+ path: planning happens *inside* the loop (branch plans
        are compiled, cached, and replanned there), so the plan phase is
        the executor's accumulated compile time and the remainder of the
        loop's wall time is the execute phase."""
        executor = self._executor(mode, plans, telemetry=self.telemetry,
                                  warm_start=warm_start)
        started = time.perf_counter()
        with tracer.span("execute") as exec_span:
            result = executor.execute(statement)
            # A finished result: tuples, or never-written (final) arrays.
            if not isinstance(result.relation.batch, ArrayColumns):
                result.relation.rows
            self._keep_plans(plans, stale, result)
            for title, plan, plan_stats in executor.observed:
                section = None
                if exec_span is not None:
                    section = exec_span.child(
                        f"plan:{title}", duration=plan_stats[plan].seconds)
                self._record_plan("recursive", title, plan, plan_stats,
                                  section)
        elapsed_ms = (time.perf_counter() - started) * 1000
        plan_ms = executor.plan_seconds * 1000
        phases["plan"] = plan_ms
        phases["execute"] = max(elapsed_ms - plan_ms, 0.0)
        if query_span is not None:
            # A synthetic sibling so traces show the compile share even
            # though the compiles are interleaved with the loop.
            query_span.child("plan", duration=executor.plan_seconds)
        self._publish_iterations(result)
        return result

    def _executor(self, mode: str, plans: StatementPlans,
                  **kwargs) -> RecursiveExecutor:
        return RecursiveExecutor(
            self.database, self.dialect, self.policy, mode=mode,
            ubu_strategy=self._ubu_strategy, temp_indexes=self.temp_indexes,
            plans=plans, **kwargs)

    def _take_plans(self, statement: Statement, mode: str
                    ) -> tuple[StatementPlans, str | None]:
        """The statement's kept plans, or a new entry and why the kept one
        was stale."""
        return self._plan_cache.take(statement, mode, self.database,
                                     CostBasedPolicy.REPLAN_FACTOR)

    def _keep_plans(self, plans: StatementPlans, stale: str | None,
                    result: WithExecutionResult) -> None:
        """Keep a statement's plans after it succeeded."""
        if stale is not None:
            result.replanned(stale)
        self._plan_cache.put(plans)

    def _record_plan(self, kind: str, title: str, plan, plan_stats,
                     span) -> None:
        """Feed one recorded plan to the spans, metrics and profiler, and
        keep it for a flight bundle's est-vs-actual report."""
        record_plan(plan, plan_stats, metrics=self.telemetry.metrics,
                    profiler=self.telemetry.profiler, span=span, kind=kind,
                    title=title, storage=self.storage)
        self._observed.append((title, plan, plan_stats))

    def _execute_plain(self, statement: Statement, plans: StatementPlans,
                       stale: str | None, tracer,
                       phases) -> WithExecutionResult:
        telemetry = self.telemetry
        observe = telemetry.tracing or telemetry.profiling
        started = time.perf_counter()
        with tracer.span("plan"):
            plan, compiled = plans.plan(statement, self.database,
                                        self.policy, plans.slots)
        phases["plan"] = (time.perf_counter() - started) * 1000
        started = time.perf_counter()
        with tracer.span("optimize"):
            # Estimate annotation is EXPLAIN/trace decoration; operator
            # selection itself happened inside plan() via the policy.
            # The profiler needs it too — drift accounting compares the
            # annotations against observed cardinalities.
            if observe:
                annotate_estimates(plan, self.policy)
        phases["optimize"] = (time.perf_counter() - started) * 1000
        started = time.perf_counter()
        with tracer.span("execute") as exec_span:
            with recording(StatsSink() if observe else None) as plan_stats:
                if observe:
                    plan_stats.watch(plan)
                relation = plan.execute()
            if observe:
                self._record_plan("select", "query", plan, plan_stats,
                                  exec_span)
            if not isinstance(relation.batch, ArrayColumns):
                relation.rows  # a finished result, as above
        phases["execute"] = (time.perf_counter() - started) * 1000
        result = WithExecutionResult(relation=relation,
                                     plans_compiled=int(compiled),
                                     plan_cache_hits=int(not compiled))
        self._keep_plans(plans, stale, result)
        return result

    def _publish_iterations(self, result: WithExecutionResult) -> None:
        """Refresh the virtual ``__iterations__`` relation with the just-run
        loop's per-iteration trajectory (queryable via plain SELECT) — a
        few rows a statement, inserted as rows."""
        rows = [(s.iteration, s.delta_rows, s.total_rows,
                 s.seconds * 1000.0, s.inserted, s.overwritten, s.pruned,
                 s.antijoin_pruned) for s in result.per_iteration]
        self.database.create_temp_table(
            "__iterations__", ITERATIONS_SCHEMA, replace=True
        ).insert_many(rows)

    def _record_query(self, sql_text: str, kind: str, total_ms: float,
                      phases: dict[str, float], result: WithExecutionResult,
                      query_span) -> None:
        telemetry = self.telemetry
        rows = len(result.relation)
        entry = telemetry.query_log.record(
            sql_text, kind, total_ms, phases, rows=rows,
            iterations=result.iterations, storage=self.storage,
            plans_compiled=result.plans_compiled,
            plan_cache_hits=result.plan_cache_hits)
        metrics = telemetry.metrics
        metrics.counter("repro_queries_total", "Statements executed.",
                        kind=kind).inc()
        metrics.histogram("repro_query_ms",
                          "Statement wall time, milliseconds."
                          ).observe(total_ms)
        for phase, ms in phases.items():
            metrics.counter("repro_phase_ms_total",
                            "Wall milliseconds per execution phase.",
                            phase=phase).inc(ms)
        if entry.slow:
            metrics.counter("repro_slow_queries_total",
                            "Statements at/over the slow-query threshold."
                            ).inc()
        metrics.counter("repro_iterations_total",
                        "Recursive with+ loop iterations."
                        ).inc(result.iterations)
        metrics.counter("repro_plans_compiled_total",
                        "Statement plans compiled (plain statements, and"
                        " every query of a with+ statement)."
                        ).inc(result.plans_compiled)
        metrics.counter("repro_plan_cache_hits_total",
                        "Kept plans re-executed instead of recompiled."
                        ).inc(result.plan_cache_hits)
        for reason, count in result.replan_reasons.items():
            metrics.counter("repro_replans_total",
                            "Kept plans dropped and replanned, by reason"
                            " (drift, replaced, analyze, schema).",
                            reason=reason).inc(count)
        estimator = getattr(self.policy, "estimator", None)
        if estimator is not None and \
                estimator.refreshes > self._refreshes_seen:
            metrics.counter("repro_stats_refreshes_total",
                            "Statistics refreshes.", source="estimator"
                            ).inc(estimator.refreshes - self._refreshes_seen)
            self._refreshes_seen = estimator.refreshes
        telemetry.profiler.record_query(kind, phases, result.per_iteration)
        if entry.slow and telemetry.flight is not None:
            telemetry.flight.record(
                self, reason="slow", sql=sql_text, kind=kind,
                total_ms=total_ms, phases=phases, rows=rows,
                iterations=result.iterations, span=query_span,
                per_iteration=result.per_iteration,
                plan_reports=self._plan_reports(),
                digest=result_digest(result.relation.rows))
        result.telemetry = QueryTelemetry(
            phases=dict(phases), rows=rows, iterations=result.iterations,
            span=query_span, per_iteration=result.per_iteration)

    def _record_failure(self, sql_text: str, total_ms: float,
                        phases: dict[str, float], error: Exception) -> None:
        """Log a failed statement and — when a flight recorder is wired —
        snapshot a diagnostic bundle before the error propagates."""
        telemetry = self.telemetry
        telemetry.query_log.record(sql_text, "error", total_ms, phases,
                                   storage=self.storage,
                                   error=type(error).__name__)
        telemetry.metrics.counter(
            "repro_query_errors_total", "Statements that raised.",
            error=type(error).__name__).inc()
        if telemetry.flight is not None:
            telemetry.flight.record(
                self, reason="error", sql=sql_text, kind="error",
                total_ms=total_ms, phases=phases, error=error,
                plan_reports=self._plan_reports())

    def _plan_reports(self) -> list[tuple[str, str]]:
        """Render the statement's recorded plans (est vs actual) for a
        flight bundle."""
        return [(title, render_analysis(plan, stats))
                for title, plan, stats in self._observed]

    def serve_metrics(self, host: str = "127.0.0.1", port: int = 0):
        """Start the live ops endpoint over this engine and return the
        running :class:`~repro.observability.ObservabilityServer` (its
        ``url`` property gives the bound address; call ``stop()`` to shut
        it down)."""
        from ..observability import ObservabilityServer

        server = ObservabilityServer(self, host=host, port=port)
        server.start()
        return server

    def _run_analyze(self, statement: AnalyzeStatement) -> Relation:
        """Eagerly refresh statistics: ``ANALYZE`` (all) / ``ANALYZE t``."""
        names = ([statement.table] if statement.table is not None
                 else self.database.table_names())
        rows = []
        self._plan_cache.analyzes += 1  # kept plans are replanned
        for name in names:
            table = self.database.table(name)
            table.analyze()
            rows.append((name, table.statistics.row_count))
        if names:
            self.telemetry.metrics.counter(
                "repro_stats_refreshes_total", "Statistics refreshes.",
                source="statement").inc(len(names))
        schema = Schema((Column("table_name", SqlType.TEXT),
                         Column("row_count", SqlType.INTEGER)))
        return Relation(schema, rows)

    def explain(self, sql: str | Statement) -> str:
        """Physical plan of a non-recursive statement, as indented text,
        with per-operator cardinality estimates.  Nothing is executed:
        subqueries and CTEs show as the subplans they run as."""
        statement = parse_statement(sql) if isinstance(sql, str) else sql
        runner = QueryRunner(self.database, self.policy)
        plan = runner.plan(statement)
        annotate_estimates(plan, self.policy)
        return explain_plan(plan)

    def explain_analyze(self, sql: str | Statement,
                        mode: str | None = None,
                        warm_start: dict[str, WarmStart] | None = None
                        ) -> str:
        """Execute a statement and return its plan annotated with actual
        per-operator row counts, inclusive timings, and loop counts.

        The statement runs as :meth:`execute` would run it — the same
        kept plans, the same kernels — while its operators record their
        stats.  For recursive ``with``/``with+`` statements the report
        covers every branch plan (and COMPUTED BY feeder) and the final
        body; since kept plans run once per iteration, their totals
        accumulate over the whole loop.  *warm_start* is
        :meth:`execute_detailed`'s.
        """
        statement = parse_statement(sql) if isinstance(sql, str) else sql
        mode = mode or self.mode
        plans, stale = self._take_plans(statement, mode)
        if plans.recursive():
            executor = self._executor(mode, plans, analyze=True,
                                      warm_start=warm_start)
            result = executor.execute(statement)
            self._keep_plans(plans, stale, result)
            return executor.analysis_report(result)
        plan, _ = plans.plan(statement, self.database, self.policy,
                             plans.slots)
        annotate_estimates(plan, self.policy)
        with recording(StatsSink()) as stats:
            stats.watch(plan)
            plan.execute()
        self._plan_cache.put(plans)
        return render_analysis(plan, stats)

    def to_psm(self, sql: str | Statement,
               procedure_name: str = "F_Q") -> PsmProgram:
        """The SQL/PSM procedure Algorithm 1 would emit for *sql*."""
        statement = parse_statement(sql) if isinstance(sql, str) else sql
        if not isinstance(statement, WithStatement):
            raise ValueError("to_psm expects a WITH statement")
        return translate_with_to_psm(statement, self.dialect, procedure_name)

    # -- convenience ------------------------------------------------------------------

    def load_graph(self, graph, edge_table: str = "E",
                   node_table: str = "V") -> None:
        """Load a :class:`repro.graphsystems.graph.Graph` as E(F,T,ew) and
        V(ID,vw) relations."""
        self.database.load_edge_table(
            edge_table,
            [(u, v, w) for u, v, w in graph.weighted_edges()])
        self.database.load_node_table(
            node_table,
            [(v, graph.node_weight(v)) for v in graph.nodes()])

    # -- streaming ingest --------------------------------------------------------------

    @property
    def streaming(self):
        """The lazily-created :class:`repro.streaming.StreamingManager`
        owning batched mutations and incrementally-maintained algorithm
        results for this engine (see docs/streaming.md)."""
        manager = getattr(self, "_streaming", None)
        if manager is None:
            from repro.streaming import StreamingManager

            manager = StreamingManager(self)
            self._streaming = manager
        return manager

    def apply_batch(self, inserts=None, deletes=None):
        """Apply one batched mutation: *inserts*/*deletes* map table names
        to row lists (deletes are key prefixes for keyed tables, full rows
        otherwise).  Returns a :class:`repro.streaming.BatchResult`."""
        return self.streaming.apply_batch(inserts=inserts, deletes=deletes)
