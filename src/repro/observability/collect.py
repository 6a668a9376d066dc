"""Bridging the physical plan's recorded stats into spans and metrics.

The physical layer observes itself: a statement's
:class:`~repro.relational.physical.analyze.StatsSink` holds per-operator
stats recorded at the operators' own boundaries, with the byproducts of
their work (join build rows, anti-join pruned rows).  This module is
duck-typed glue: :func:`record_plan` walks a plan tree once and copies
those observations into the telemetry layer.
"""

from __future__ import annotations

from typing import Any

from .metrics import MetricsRegistry
from .profiling import DRIFT_THRESHOLD, Profiler, estimate_row_bytes
from .tracing import Span


def record_plan(root: Any, stats: dict[Any, Any], *,
                metrics: MetricsRegistry | None = None,
                profiler: Profiler | None = None, span: Span | None = None,
                kind: str = "select", title: str = "query",
                storage: str = "rows",
                threshold: float = DRIFT_THRESHOLD) -> None:
    """Fold one executed plan's operator stats into the telemetry, in one
    walk of the tree.

    * Under *span*, per-operator spans mirroring the plan.  Operator
      timings are recorded at the operators' boundaries rather than by
      entering ``with`` blocks, so the spans are synthetic: each starts at
      its parent span's start and lasts the operator's *inclusive*
      seconds.
    * Into *metrics*, rows and seconds per operator, join build rows,
      anti-join pruned rows, and ``repro_cardinality_misestimates_total``
      for every operator whose :func:`drift` lies beyond *threshold* in
      either direction (``under`` = actual exceeded the estimate,
      ``over`` = the estimate exceeded the actual) — the aggregate half
      of EXPLAIN ANALYZE's ``drift=``.
    * Into an enabled *profiler*, one stack per operator with its self
      time, and the same drifts for its misestimate report.
    """
    from ..relational.physical.analyze import drift

    if profiler is not None and not profiler.enabled:
        profiler = None

    def visit(node: Any, parent: Span | None, path: tuple[str, ...]) -> None:
        node_stats = stats.get(node)
        estimate = getattr(node, "estimated_rows", None)
        children = node.children()
        stack = path + (f"op:{node.label}",)
        if parent is not None:
            attrs = {"detail": node.detail() or None, "est_rows": estimate}
            if node_stats is not None:
                attrs.update(rows=node_stats.rows, calls=node_stats.calls)
            parent = parent.child(
                "op:" + node.label,
                duration=getattr(node_stats, "seconds", 0.0),
                **{key: value for key, value in attrs.items()
                   if value is not None})
        if node_stats is not None and node_stats.calls > 0:
            ratio = drift(node_stats, estimate)
            misestimated = ratio is not None and not (
                1.0 / threshold <= ratio <= threshold)
            if metrics is not None:
                _count_operator(metrics, node, node_stats)
                if misestimated:
                    metrics.counter(
                        "repro_cardinality_misestimates_total",
                        "Executed operators whose est_rows drifted beyond"
                        " the threshold.", operator=node.label,
                        direction="under" if ratio > 1.0 else "over").inc()
            if profiler is not None:
                child_seconds = sum(stats[c].seconds for c in children
                                    if c in stats)
                profiler.add_operator(
                    stack, node.label, storage,
                    max(node_stats.seconds - child_seconds, 0.0),
                    node_stats.rows, node_stats.calls,
                    node_stats.rows * estimate_row_bytes(node.schema))
                if misestimated:
                    profiler.add_misestimate(node.label, ratio,
                                             node.detail() or "")
        for child in children:
            visit(child, parent, stack)

    visit(root, span, (f"query:{kind}", f"plan:{title}"))


def _count_operator(metrics: MetricsRegistry, node: Any,
                    node_stats: Any) -> None:
    metrics.counter(
        "repro_operator_rows_total",
        "Rows produced per physical operator.",
        operator=node.label).inc(node_stats.rows)
    metrics.counter(
        "repro_operator_seconds_total",
        "Inclusive wall seconds per physical operator.",
        operator=node.label).inc(node_stats.seconds)
    if node_stats.build_rows:
        metrics.counter(
            "repro_join_build_rows_total",
            "Rows hashed into join build sides.").inc(node_stats.build_rows)
    if node_stats.pruned:
        metrics.counter(
            "repro_antijoin_pruned_rows_total",
            "Rows removed by anti-join delta pruning.").inc(node_stats.pruned)


def record_storage_metrics(metrics: MetricsRegistry, database: Any) -> None:
    """Snapshot per-table storage counters into gauges.

    Tables keep their maintenance counters (``index_rebuilds``,
    ``incremental_index_ops``) and — on the columnar backend — the
    store's ``row_assigns`` and resident bytes; this copies the
    current values into labelled gauges so they export next to the
    operator metrics.  Gauges, not counters: the sources are already
    cumulative, and ``set`` makes re-collection idempotent.
    """
    for table in database.all_tables():
        labels = {"table": table.name, "storage": table.storage}
        metrics.gauge(
            "repro_storage_index_rebuilds",
            "Full index/keyset rebuilds per table.",
            **labels).set(table.index_rebuilds)
        metrics.gauge(
            "repro_storage_incremental_index_ops",
            "Incremental per-row index maintenance operations per table.",
            **labels).set(table.incremental_index_ops)
        store = table.rows
        if not hasattr(store, "row_assigns"):
            continue  # row backend: no columnar counters
        metrics.gauge(
            "repro_storage_row_assigns",
            "Whole-contents replacements (recursive delta applications).",
            **labels).set(store.row_assigns)
        metrics.gauge(
            "repro_storage_resident_bytes",
            "Resident bytes of the columnar store's data.",
            **labels).set(store.size_bytes())
