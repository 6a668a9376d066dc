"""EXPLAIN ANALYZE: execute a plan with per-operator instrumentation.

:func:`instrument` patches each plan node's ``rows`` *instance* attribute
with a counting/timing wrapper — parents pull from ``self.child.rows()``,
so the instance attribute shadows the class method and every inter-operator
row hand-off is observed.  Timings are *inclusive*: an operator's time
covers its own work plus everything it pulled from its children, exactly
like the ``actual time`` of PostgreSQL's ``EXPLAIN ANALYZE``.

Stats objects accumulate across executions of the same plan, so the
recursive executor can instrument a cached branch plan once and read
totals over all iterations of the with+ loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..relation import Relation
from .base import PhysicalOperator


@dataclass
class OperatorStats:
    """Observed per-operator execution totals."""

    rows: int = 0
    seconds: float = 0.0
    calls: int = 0


#: How many trees :func:`instrument` has patched: the batch kernels decide
#: once per plan whether a tree is instrumented, and again when this moves.
patched_trees = 0


def instrument(root: PhysicalOperator
               ) -> dict[PhysicalOperator, OperatorStats]:
    """Wrap every node of *root*'s tree with row/time accounting.

    Returns a node → :class:`OperatorStats` mapping that fills in as the
    plan executes (and keeps accumulating over repeated executions).
    """
    global patched_trees
    patched_trees += 1
    stats: dict[PhysicalOperator, OperatorStats] = {}

    def wrap(node: PhysicalOperator) -> None:
        node_stats = OperatorStats()
        stats[node] = node_stats
        original = node.rows  # bound method, captured before patching

        def instrumented_rows():
            node_stats.calls += 1
            # Create the source iterator eagerly so operators that do their
            # work up front (the batch kernels' materialising rows()) are
            # timed — and credited — even when the parent never iterates
            # the result or the operator yields zero rows.
            started = time.perf_counter()
            iterator = iter(original())
            node_stats.seconds += time.perf_counter() - started

            def gen():
                elapsed = 0.0
                produced = 0
                try:
                    while True:
                        pull = time.perf_counter()
                        try:
                            row = next(iterator)
                        except StopIteration:
                            elapsed += time.perf_counter() - pull
                            break
                        elapsed += time.perf_counter() - pull
                        produced += 1
                        yield row
                finally:
                    node_stats.rows += produced
                    node_stats.seconds += elapsed

            return gen()

        node.rows = instrumented_rows  # type: ignore[method-assign]
        original_execute = node.execute

        def instrumented_execute():
            # Batch kernels' execute() builds the result without calling
            # their own rows(); time the call and credit the stats unless
            # the rows() wrapper already observed this execution.
            calls_before = node_stats.calls
            started = time.perf_counter()
            relation = original_execute()
            elapsed = time.perf_counter() - started
            if node_stats.calls == calls_before:
                node_stats.calls += 1
                node_stats.rows += len(relation.rows)
                node_stats.seconds += elapsed
            return relation

        node.execute = instrumented_execute  # type: ignore[method-assign]
        for child in node.children():
            wrap(child)

    wrap(root)
    return stats


def render_analysis(root: PhysicalOperator,
                    stats: dict[PhysicalOperator, OperatorStats]) -> str:
    """The EXPLAIN tree annotated with actual row counts and timings."""
    lines: list[str] = []

    def visit(node: PhysicalOperator, depth: int) -> None:
        annotation = node.detail()
        suffix = f" [{annotation}]" if annotation else ""
        estimate = getattr(node, "estimated_rows", None)
        if estimate is not None:
            suffix += f" (est_rows={estimate})"
        node_stats = stats.get(node)
        if node_stats is None or node_stats.calls == 0:
            actual = " (never executed)"
        else:
            actual = (f" (actual rows={node_stats.rows}"
                      f" time={node_stats.seconds * 1000:.3f} ms"
                      f" loops={node_stats.calls}")
            if estimate is not None:
                # Estimated-vs-actual drift, per execution of this node: a
                # ratio far from 1.00 marks the misestimates worth chasing.
                # A zero/negative estimate has no meaningful ratio — those
                # render as n/a instead of dividing by a clamped floor.
                per_loop = node_stats.rows / node_stats.calls
                if estimate > 0:
                    actual += f" drift={per_loop / estimate:.2f}x"
                else:
                    actual += " drift=n/a"
            actual += ")"
        lines.append("  " * depth + f"-> {node.label}{suffix}{actual}")
        for child in node.children():
            visit(child, depth + 1)

    visit(root, 0)
    return "\n".join(lines)


def execute_analyzed(root: PhysicalOperator) -> tuple[Relation, str]:
    """Instrument *root*, execute it once, and return (result, report)."""
    stats = instrument(root)
    relation = Relation(root.schema, root.rows())
    return relation, render_analysis(root, stats)
