"""EXPLAIN ANALYZE: per-operator stats recorded where every execution
already passes — an operator's ``rows()`` and ``execute()`` (wrapped per
class by :func:`observed`) and, for a node the block pipeline fuses into
its parent, ``batch._batch_source``, which credits it with the rows of
the batch it hands on.  Each boundary checks :data:`SINK` once per call.

A traced, profiled or EXPLAIN ANALYZEd statement runs inside
:func:`recording`; the plans it :meth:`watches <StatsSink.watch>` add
their rows, time and calls to its :class:`StatsSink`.  Nothing is
patched into a plan: the plan measured is the plan that runs, kept plans
included, and stats accumulate over the statement (a cached with+ branch
reports its totals over every iteration).

Timings are inclusive, like PostgreSQL's ``actual time``.  An
iterator-model operator that streams its rows is counted as its consumer
pulls them (a C-level count, no Python frame per row); its time is the
time to open the stream, its work shows in its consumer's.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import wraps
from itertools import count
from operator import itemgetter, length_hint
from typing import Any, Iterator

from ..relation import Relation


@dataclass
class OperatorStats:
    """Observed per-operator execution totals."""

    rows: int = 0
    seconds: float = 0.0
    calls: int = 0
    #: join build rows / anti-join pruned rows during the recording
    build_rows: int = 0
    pruned: int = 0
    #: which kernel answered its last execution, for the operators that
    #: say: the batch executor's hash aggregate (``"array"`` or
    #: ``"rows"``) and filter (``"array"``, ``"list"`` or ``"rows"``)
    path: str | None = None


#: Iterators whose length is known before anything is pulled.
_SIZED_ITERATORS = (type(iter([])), type(iter(())))
_FIRST = itemgetter(0)


class StatsSink(dict):
    """One statement's ``node -> OperatorStats``, for the plans it watches."""

    def __init__(self):
        super().__init__()
        #: (stats, rows, seconds, counter) per credit: what rollback undoes
        self._log: list[tuple] = []
        #: (stats, counter) per streamed hand-off, counted by settle()
        self._streams: list[tuple] = []

    def watch(self, root: Any) -> bool:
        """Record *root*'s tree from now on; False when it already is."""
        if root in self:
            return False
        pending = [root]
        while pending:
            node = pending.pop()
            # The byproduct counters start from their current values;
            # settle() adds the final ones.
            self.setdefault(node, OperatorStats(
                build_rows=-getattr(node, "build_rows_observed", 0),
                pruned=-getattr(node, "pruned_total", 0)))
            pending.extend(node.children())
        return True

    def credit(self, stats: OperatorStats, rows: int, seconds: float,
               counter: Iterator[int] | None = None) -> None:
        """One execution handing on *rows* rows (or *counter*'s count)."""
        stats.rows += rows
        stats.seconds += seconds
        stats.calls += 1
        self._log.append((stats, rows, seconds, counter))
        if counter is not None:
            self._streams.append((stats, counter))

    def rollback(self, mark: int) -> None:
        """Undo the credits since *mark* (a log length): a declined block
        pipeline hands its operators to the row path, which credits them."""
        for stats, rows, seconds, counter in self._log[mark:]:
            stats.rows -= rows
            stats.seconds -= seconds
            stats.calls -= 1
            if counter is not None:
                self._streams = [entry for entry in self._streams
                                 if entry[1] is not counter]
        del self._log[mark:]

    def settle(self) -> None:
        """Count the streamed rows and the byproducts: final stats."""
        for stats, counter in self._streams:
            stats.rows += next(counter)
        self._streams.clear()
        self._log.clear()
        for node, stats in self.items():
            stats.build_rows += getattr(node, "build_rows_observed", 0)
            stats.pruned += getattr(node, "pruned_total", 0)

    def observe(self, stats: OperatorStats, method, node: Any,
                args: tuple, kwargs: dict) -> Any:
        """Run one boundary call of a watched *node* and credit it."""
        calls, seconds = stats.calls, stats.seconds
        started = time.perf_counter()
        out = method(node, *args, **kwargs)
        elapsed = time.perf_counter() - started
        if stats.calls != calls:
            # The call credited its node already (execute() through
            # rows(), a kernel resolving its own block pipeline): keep
            # that count and time the whole call.
            stats.seconds = seconds + elapsed
        elif hasattr(out, "__next__"):
            if type(out) in _SIZED_ITERATORS:
                self.credit(stats, length_hint(out), elapsed)
            else:
                counter = count()
                # zip pulls a row before a count: the counter's next value
                # is the number of rows handed on.
                out = map(_FIRST, zip(out, counter))
                self.credit(stats, 0, elapsed, counter)
        elif isinstance(out, (list, tuple, Relation)):
            self.credit(stats, len(out), elapsed)
        # Anything else (a column batch, None) is credited by whoever
        # resolves it into the pipeline.
        return out


#: The sink of the statement being recorded in this context, or None.
SINK: ContextVar[StatsSink | None] = ContextVar("repro_stats_sink",
                                                default=None)


@contextmanager
def recording(new: StatsSink | None):
    """Record watched plans into *new* until exit (None: record nothing)."""
    token = SINK.set(new)
    try:
        yield new
    finally:
        SINK.reset(token)
        if new is not None:
            new.settle()


def mark() -> int | None:
    """Where a speculative block attempt starts in the recording."""
    sink = SINK.get()
    return None if sink is None else len(sink._log)


def rollback(mark: int | None) -> None:
    """Undo a declined block attempt's credits since :func:`mark`."""
    if mark is not None:
        SINK.get().rollback(mark)


def note_path(node: Any, path: str) -> None:
    """Record which kernel answered *node* (:attr:`OperatorStats.path`)
    when a recording watches it; else one check of :data:`SINK`."""
    sink = SINK.get()
    if sink is not None:
        stats = sink.get(node)
        if stats is not None:
            stats.path = path


def observed(method):
    """Wrap an operator's ``rows``/``execute``: a credit when a recording
    watches the node, else one check of :data:`SINK`."""

    @wraps(method)
    def boundary(node, *args, **kwargs):
        sink = SINK.get()
        if sink is not None:
            stats = sink.get(node)
            if stats is not None:
                return sink.observe(stats, method, node, args, kwargs)
        return method(node, *args, **kwargs)

    return boundary


def drift(stats: OperatorStats | None, estimate: int | None
          ) -> float | None:
    """Actual rows per execution over ``est_rows``: the one drift rule of
    EXPLAIN ANALYZE's ``drift=``, the misestimate counter and the
    profiler's misestimate report.  None when there is nothing to compare
    (no estimate, or the operator never ran); an operator estimated empty
    was exact if it was empty (1.0) and under-estimated without bound
    (``inf``) if it produced rows."""
    if estimate is None or stats is None or not stats.calls:
        return None
    per_loop = stats.rows / stats.calls
    if estimate > 0:
        return per_loop / estimate
    return 1.0 if per_loop <= 0 else math.inf


def render_analysis(root: Any, stats: dict[Any, OperatorStats]) -> str:
    """The EXPLAIN tree annotated with actual row counts and timings."""
    from .base import explain_plan

    def actuals(node: Any) -> str:
        node_stats = stats.get(node)
        if node_stats is None or node_stats.calls == 0:
            return " (never executed)"
        text = (f" (actual rows={node_stats.rows}"
                f" time={node_stats.seconds * 1000:.3f} ms"
                f" loops={node_stats.calls}")
        ratio = drift(node_stats, getattr(node, "estimated_rows", None))
        if ratio is not None:
            # A ratio far from 1.00 marks the misestimates worth chasing;
            # an empty estimate that was not has no ratio.
            text += (" drift=n/a" if math.isinf(ratio)
                     else f" drift={ratio:.2f}x")
        if node_stats.path is not None:
            text += f" path={node_stats.path}"
        return text + ")"

    return explain_plan(root, actuals)
