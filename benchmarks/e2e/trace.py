"""Span recording at the layer boundaries, from outside ``src/``.

``SPAN_TABLE`` names callables of the engine; ``install`` wraps each one
with a span recorder *where it is looked up* (a function imported by name
is patched in the importing module, a method on its class).  A span holds
name, start, end and parent; the harness opens the ``cycle`` and ``stmt``
spans that give every span below them a cycle id and a statement name.
Spans stay in memory until ``Recorder.dump``.

Self time of a span = its duration minus the time its direct children
cover (one thread, so children never overlap).  Counts (rows out, calls)
are taken from the wrapped callable's return value.
"""

from __future__ import annotations

import importlib
import inspect
import json
import operator
import time
from typing import Any, Callable

#: (module, attribute path, span name[, DRAIN]).  The text before the span
#: name's first dot is its layer: ``table.merge`` -> ``table``.
#:
#: DRAIN marks the pull-based joins the cost-based planner still picks
#: under the batch executor (a cached build side inside the fixpoint, a
#: merge join over sorted inputs).  Their ``rows()`` is a generator, so
#: the work would happen in — and be charged to — whoever iterates it.
#: The wrapper drains the generator inside the span and hands on an
#: iterator over the list, which is what their batch consumers do next
#: anyway (``_materialize`` = ``list(node.rows())``).
DRAIN = "drain"
SPAN_TABLE: tuple[tuple[str, ...], ...] = (
    # engine facade: query log, counters, phase bookkeeping
    ("repro.relational.engine", "Engine.execute_detailed", "engine.dispatch"),
    # sql
    ("repro.relational.engine", "parse_statement", "sql.parse"),
    ("repro.relational.sql.compiler", "QueryRunner.plan", "sql.compile"),
    # optimizer / statistics
    ("repro.relational.optimizer", "plan_from_cost_based",
     "optimizer.join_order"),
    ("repro.relational.optimizer", "CardinalityEstimator.annotate",
     "optimizer.annotate"),
    ("repro.relational.table", "Table.analyze", "statistics.analyze"),
    # recursive
    ("repro.relational.recursive", "RecursiveExecutor.execute",
     "recursive.loop"),
    # strategies
    ("repro.relational.recursive", "apply_union_by_update", "strategies.ubu"),
    ("repro.relational.strategies", "consolidate_delta",
     "strategies.consolidate"),
    # table
    ("repro.relational.table", "Table.apply_delta_by_key", "table.merge"),
    ("repro.relational.table", "Table.merge_by_key", "table.merge"),
    ("repro.relational.table", "Table.merge_delta_rebuild", "table.merge"),
    ("repro.relational.table", "Table.insert", "table.insert"),
    ("repro.relational.table", "Table.insert_many", "table.insert"),
    ("repro.relational.table", "Table.insert_relation", "table.insert"),
    ("repro.relational.table", "Table.delete_by_key", "table.delete"),
    ("repro.relational.table", "Table.delete_where", "table.delete"),
    # physical.  The fused block pipeline never calls a join's
    # execute()/rows(): its boundary is _block_source plus the lazy
    # gathers of the JoinColumns it returns.
    ("repro.relational.physical.batch", "_BatchBinaryJoin.execute",
     "physical.join"),
    ("repro.relational.physical.batch", "_BatchBinaryJoin.rows",
     "physical.join"),
    ("repro.relational.physical.batch", "BatchHashJoin._block_source",
     "physical.join"),
    ("repro.relational.physical.joins", "HashJoin.rows",
     "physical.join", DRAIN),
    ("repro.relational.physical.joins", "CachedBuildHashJoin.rows",
     "physical.join", DRAIN),
    ("repro.relational.physical.joins", "MergeJoin.rows",
     "physical.join", DRAIN),
    ("repro.relational.physical.blocks", "JoinColumns.column",
     "physical.join.gather"),
    ("repro.relational.physical.blocks", "JoinColumns.rows",
     "physical.join.gather"),
    ("repro.relational.physical.batch", "BatchHashAggregate.execute",
     "physical.aggregate"),
    ("repro.relational.physical.batch", "BatchHashAggregate.rows",
     "physical.aggregate"),
    ("repro.relational.physical.batch", "BatchProject.execute",
     "physical.other"),
    ("repro.relational.physical.batch", "BatchProject.rows",
     "physical.other"),
    ("repro.relational.physical.batch", "BatchFilter.execute",
     "physical.other"),
    ("repro.relational.physical.batch", "BatchFilter.rows",
     "physical.other"),
    ("repro.relational.physical.batch", "BatchUnionAll.execute",
     "physical.other"),
    ("repro.relational.physical.batch", "BatchUnionAll.rows",
     "physical.other"),
    ("repro.relational.physical.base", "PhysicalOperator.execute",
     "physical.other"),
    # columnar
    ("repro.relational.columnar.store", "ColumnBlock.seal", "columnar.seal"),
    ("repro.relational.columnar.store", "ColumnBlock.decode_column",
     "columnar.decode"),
    ("repro.relational.columnar.store", "ColumnStore.column",
     "columnar.decode"),
    ("repro.relational.columnar.store", "ColumnStore.materialized",
     "columnar.decode"),
    ("repro.relational.columnar.store", "ColumnStore.join_index",
     "columnar.join_index"),
    # streaming
    ("repro.streaming.manager", "StreamingManager.apply_batch",
     "streaming.apply"),
    ("repro.streaming.views", "PageRankView.refresh",
     "streaming.refresh.pagerank"),
    ("repro.streaming.views", "WccView.refresh", "streaming.refresh.wcc"),
    ("repro.streaming.views", "SsspView.refresh", "streaming.refresh.sssp"),
)

# Span record layout (a list, for speed): name, parent, start, end, size.
NAME, PARENT, START, END, SIZE = range(5)

#: Spans whose return value is kept next to the span: the public API
#: already reports iteration statistics and refresh modes there.
KEEP_RESULT = frozenset({"recursive.loop", "streaming.apply"})


def result_size(value: Any) -> int:
    """Rows in a wrapped callable's return value, 0 when it has none."""
    value = getattr(value, "relation", value)  # WithExecutionResult
    try:
        return len(value)
    except TypeError:
        pass
    length = getattr(value, "length", None)
    if isinstance(length, int):
        return length
    if isinstance(value, (int, float, type(None))):
        return 0
    return operator.length_hint(value, 0)


class Scope:
    """A harness-opened span (``cycle``, ``stmt:<name>``)."""

    def __init__(self, recorder: "Recorder", index: int, parent: int):
        self.recorder = recorder
        self.index = index
        self.parent = parent

    def close(self) -> None:
        recorder = self.recorder
        recorder.spans[self.index][END] = recorder.clock()
        recorder.current = self.parent


class Recorder:
    """In-memory span store; one per traced process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        #: (span index, return value) for the KEEP_RESULT spans
        self.kept: list[tuple[int, Any]] = []
        self.current = -1
        self._originals: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> Scope:
        parent = self.current
        index = len(self.spans)
        self.spans.append([name, parent, self.clock(), 0.0, 0])
        self.current = index
        return Scope(self, index, parent)

    def wrap(self, name: str, fn: Callable, drain: bool = False) -> Callable:
        spans = self.spans
        clock = self.clock
        recorder = self
        keep = name in KEEP_RESULT

        def traced(*args, **kwargs):
            parent = recorder.current
            span = [name, parent, clock(), 0.0, 0]
            index = recorder.current = len(spans)
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if drain and inspect.isgenerator(result):
                    rows = list(result)
                    result = iter(rows)
                span[SIZE] = result_size(result)
                if keep:
                    recorder.kept.append((index, result))
                return result
            finally:
                span[END] = clock()
                recorder.current = parent

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def install(self, table=SPAN_TABLE) -> list[str]:
        """Patch every resolvable entry; returns the ones that are gone
        (a later change may delete a layer — the benchmark keeps going)."""
        missing = []
        for module_name, path, span_name, *flags in table:
            drain = DRAIN in flags
            try:
                owner: Any = importlib.import_module(module_name)
                *parents, attribute = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attribute)
            except (ImportError, AttributeError):
                missing.append(f"{module_name}:{path}")
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped: Any = type(raw)(
                    self.wrap(span_name, raw.__func__, drain))
            else:
                wrapped = self.wrap(span_name, raw, drain)
            self._originals.append((owner, attribute, raw))
            setattr(owner, attribute, wrapped)
        return missing

    def uninstall(self) -> None:
        for owner, attribute, raw in reversed(self._originals):
            setattr(owner, attribute, raw)
        self._originals.clear()

    # -- analysis ----------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span, with its cycle id and statement name resolved
        from the enclosing harness spans."""
        cycle_of: list[int] = []
        statement_of: list[str] = []
        cycles = 0
        rows = []
        for span in self.spans:
            name, parent = span[NAME], span[PARENT]
            if name == "cycle":
                cycle, statement = cycles, ""
                cycles += 1
            else:
                cycle = cycle_of[parent] if parent >= 0 else -1
                statement = (name[5:] if name.startswith("stmt:")
                             else statement_of[parent] if parent >= 0 else "")
            cycle_of.append(cycle)
            statement_of.append(statement)
            rows.append([name, span[START], span[END], parent, cycle,
                         statement, span[SIZE]])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"columns": ["name", "start", "end", "parent", "cycle",
                                   "statement", "size"],
                       "spans": rows}, handle)
            handle.write("\n")


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the time its direct children cover."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            own[parent] -= span[END] - span[START]
    return own


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Span name -> {self_s, calls, size}."""
    totals: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(
            span[NAME], {"self_s": 0.0, "calls": 0, "size": 0})
        entry["self_s"] += own
        entry["calls"] += 1
        entry["size"] += span[SIZE]
    return totals


def ancestor(spans: list[list], index: int, names) -> int:
    """Index of the nearest enclosing span named in *names*, or -1."""
    parent = spans[index][PARENT]
    while parent >= 0 and spans[parent][NAME] not in names:
        parent = spans[parent][PARENT]
    return parent


def child_sizes(spans: list[list], parent_name: str, operators) -> int:
    """Total result size of the *operators* spans whose nearest enclosing
    operator span is a *parent_name* one: the rows traced operators
    handed to *parent_name* operators."""
    total = 0
    for index, span in enumerate(spans):
        if span[NAME] in operators:
            above = ancestor(spans, index, operators)
            if above >= 0 and spans[above][NAME] == parent_name:
                total += span[SIZE]
    return total
