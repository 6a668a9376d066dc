"""Continuous profiling: per-operator and per-iteration accounting.

A recorded statement's operators measure themselves (rows, inclusive
seconds, calls — ``repro.relational.physical.analyze``), and
``repro.observability.collect.record_plan`` walks each recorded plan
once, feeding the :class:`Profiler` here, which aggregates across
queries:

* **Operator stacks.**  Every recorded plan contributes one stack
  per operator — ``query:<kind>;plan:<title>;op:A;op:B`` — with the
  operator's *self* wall time (inclusive minus children, the flamegraph
  convention), rows produced, calls, and an estimate of the resident
  bytes its output occupied.  :meth:`Profiler.to_collapsed` renders the
  standard collapsed-stack format that ``flamegraph.pl``, speedscope and
  the Firefox profiler all load directly.
* **Hot operators.**  :meth:`Profiler.top_operators` folds the stacks by
  leaf operator into a top-K table (self seconds, rows, bytes, calls).
* **Fixpoint iterations.**  Recursive executions feed their
  ``IterationStat`` trajectory in; the profiler aggregates by iteration
  *index*, so "iteration 3 is always the expensive one" is visible
  across runs.
* **Misestimates.**  Operators whose ``drift`` (actual per-loop rows
  over ``estimated_rows``) lies beyond :data:`DRIFT_THRESHOLD` are
  aggregated into the misestimate report the planner work feeds on.

A disabled profiler (the default) records nothing and is never walked
into, so telemetry-off engines pay one attribute check per query.
:class:`ProfileStore` persists merged profiles as JSON so
``repro profile --store`` accumulates across processes.
"""

from __future__ import annotations

import json
import os
from typing import Any, Iterable

from .tracing import _json_safe

#: est-vs-actual ratio beyond which an operator counts as misestimated
#: (in either direction).
DRIFT_THRESHOLD = 4.0

#: Approximate resident bytes per cell by SQL type name (CPython object
#: sizes: small int 28, float 24, short str ~60, bool is a shared
#: singleton but the pointer still costs).  Used with the tuple header
#: (56) and one pointer per cell to estimate operator output footprints
#: without touching row data.
_CELL_BYTES = {
    "integer": 28,
    "double precision": 24,
    "text": 60,
    "boolean": 8,
}
_TUPLE_HEADER_BYTES = 56
_POINTER_BYTES = 8


def estimate_row_bytes(schema: Any) -> int:
    """Deterministic per-row resident-bytes estimate for *schema*."""
    total = _TUPLE_HEADER_BYTES
    for column in getattr(schema, "columns", ()):
        type_name = getattr(getattr(column, "sql_type", None), "value", "")
        total += _POINTER_BYTES + _CELL_BYTES.get(type_name, 48)
    return total


class _StackEntry:
    """Accumulated totals for one operator stack."""

    __slots__ = ("seconds", "rows", "calls", "bytes_est")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.rows = 0
        self.calls = 0
        self.bytes_est = 0

    def add(self, seconds: float, rows: int, calls: int,
            bytes_est: int) -> None:
        self.seconds += seconds
        self.rows += rows
        self.calls += calls
        self.bytes_est += bytes_est

    def to_dict(self) -> dict[str, Any]:
        return {"us": int(self.seconds * 1e6), "rows": self.rows,
                "calls": self.calls, "bytes": self.bytes_est}


class _MisestimateEntry:
    """Aggregated cardinality drift for one operator label."""

    __slots__ = ("count", "over", "under", "worst_ratio", "worst_detail")

    def __init__(self) -> None:
        self.count = 0
        self.over = 0
        self.under = 0
        self.worst_ratio = 1.0
        self.worst_detail = ""

    def observe(self, ratio: float, detail: str) -> None:
        self.count += 1
        if ratio >= 1.0:
            self.under += 1
        else:
            self.over += 1
        severity = ratio if ratio >= 1.0 else 1.0 / max(ratio, 1e-12)
        worst = (self.worst_ratio if self.worst_ratio >= 1.0
                 else 1.0 / self.worst_ratio)
        if severity >= worst:
            self.worst_ratio = ratio
            self.worst_detail = detail

    def to_dict(self) -> dict[str, Any]:
        return {"count": self.count, "over": self.over, "under": self.under,
                "worst_ratio": round(self.worst_ratio, 3),
                "worst_detail": self.worst_detail}


class Profiler:
    """Aggregates recorded plan stats across queries.

    All state is plain dicts so a snapshot (:meth:`to_dict`) is cheap and
    the ``/profile`` endpoint can serve it without locking: the engine is
    single-threaded and the scrape thread only reads.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.queries = 0
        #: stack tuple -> accumulated self-time/rows/bytes.
        self._stacks: dict[tuple[str, ...], _StackEntry] = {}
        #: leaf operator label -> accumulated totals (top-K source).
        self._operators: dict[tuple[str, str], _StackEntry] = {}
        #: (kind, phase) -> accumulated milliseconds.
        self._phases: dict[tuple[str, str], float] = {}
        #: iteration index -> aggregated trajectory.
        self._iterations: dict[int, dict[str, float]] = {}
        #: operator label -> drift aggregation.
        self._misestimates: dict[str, _MisestimateEntry] = {}

    # -- recording -----------------------------------------------------------

    def reset(self) -> None:
        self.queries = 0
        self._stacks.clear()
        self._operators.clear()
        self._phases.clear()
        self._iterations.clear()
        self._misestimates.clear()

    def record_query(self, kind: str, phases: dict[str, float],
                     per_iteration: Iterable[Any] = ()) -> None:
        """Fold one executed statement's phase timings and (for recursive
        statements) its fixpoint trajectory into the profile."""
        if not self.enabled:
            return
        self.queries += 1
        for phase, ms in phases.items():
            key = (kind, phase)
            self._phases[key] = self._phases.get(key, 0.0) + ms
        for stat in per_iteration:
            slot = self._iterations.setdefault(stat.iteration, {
                "runs": 0, "delta_rows": 0, "total_rows": 0, "ms": 0.0,
                "inserted": 0, "overwritten": 0, "pruned": 0,
                "antijoin_pruned": 0})
            slot["runs"] += 1
            slot["delta_rows"] += stat.delta_rows
            slot["total_rows"] += stat.total_rows
            slot["ms"] += stat.seconds * 1000.0
            slot["inserted"] += stat.inserted
            slot["overwritten"] += stat.overwritten
            slot["pruned"] += stat.pruned
            slot["antijoin_pruned"] += stat.antijoin_pruned

    def add_operator(self, stack: tuple[str, ...], label: str,
                     storage: str, self_seconds: float, rows: int,
                     calls: int, bytes_est: int) -> None:
        """Fold one executed operator into its stack and its label's
        totals.  ``repro.observability.collect.record_plan`` walks each
        recorded plan and calls this per operator; cached recursive
        branch plans arrive once per query with totals accumulated over
        every loop iteration."""
        self._stacks.setdefault(stack, _StackEntry()).add(
            self_seconds, rows, calls, bytes_est)
        self._operators.setdefault((label, storage), _StackEntry()).add(
            self_seconds, rows, calls, bytes_est)

    def add_misestimate(self, label: str, ratio: float, detail: str) -> None:
        """One operator whose ``drift`` lay beyond :data:`DRIFT_THRESHOLD`."""
        self._misestimates.setdefault(
            label, _MisestimateEntry()).observe(ratio, detail)

    # -- reports -------------------------------------------------------------

    def to_collapsed(self) -> str:
        """The flamegraph collapsed-stack format: ``a;b;c <value>`` lines,
        one per unique stack, value in microseconds of *self* time.

        Phase timings appear as ``query:<kind>;phase:<name>`` stacks so
        parse/plan/optimize cost is visible next to the operator forest.
        """
        lines: list[str] = []
        for (kind, phase), ms in sorted(self._phases.items()):
            if phase == "execute":
                continue  # execute time lives in the operator stacks
            lines.append(f"query:{kind};phase:{phase} {int(ms * 1000)}")
        for stack, entry in sorted(self._stacks.items()):
            lines.append(";".join(stack) + f" {int(entry.seconds * 1e6)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def top_operators(self, k: int = 10) -> list[dict[str, Any]]:
        """The K hottest operators by accumulated self wall time."""
        total = sum(e.seconds for e in self._operators.values()) or 1.0
        ranked = sorted(self._operators.items(),
                        key=lambda item: item[1].seconds, reverse=True)
        return [{
            "operator": label,
            "storage": storage,
            "seconds": round(entry.seconds, 6),
            "share": round(entry.seconds / total, 4),
            "rows": entry.rows,
            "calls": entry.calls,
            "bytes_est": entry.bytes_est,
        } for (label, storage), entry in ranked[:k]]

    def misestimate_report(self, k: int = 10) -> list[dict[str, Any]]:
        """Operators whose cardinality estimates drifted the most — the
        feedback loop the cost model's constants are tuned against."""
        def severity(entry: _MisestimateEntry) -> float:
            ratio = entry.worst_ratio
            return ratio if ratio >= 1.0 else 1.0 / max(ratio, 1e-12)

        ranked = sorted(self._misestimates.items(),
                        key=lambda item: (severity(item[1]), item[1].count),
                        reverse=True)
        return [dict(operator=label, **entry.to_dict())
                for label, entry in ranked[:k]]

    def iteration_profile(self) -> list[dict[str, Any]]:
        """Aggregated fixpoint trajectory by iteration index."""
        out = []
        for index in sorted(self._iterations):
            slot = self._iterations[index]
            out.append({"iteration": index,
                        **{key: (round(value, 3)
                                 if isinstance(value, float) else value)
                           for key, value in slot.items()}})
        return out

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready snapshot (the ``/profile`` endpoint payload and the
        :class:`ProfileStore` merge unit)."""
        return {
            "format": "repro-profile-v1",
            "queries": self.queries,
            "phases": {f"{kind};{phase}": round(ms, 3)
                       for (kind, phase), ms in sorted(self._phases.items())},
            "stacks": {";".join(stack): entry.to_dict()
                       for stack, entry in sorted(self._stacks.items())},
            "top_operators": self.top_operators(k=len(self._operators) or 1),
            "iterations": self.iteration_profile(),
            "misestimates": self.misestimate_report(
                k=len(self._misestimates) or 1),
        }


class ProfileStore:
    """A persistent, mergeable profile aggregate (JSON on disk).

    ``repro profile --store profile.json`` merges each run's snapshot
    into the store, so the hot-operator ranking reflects *all* profiled
    runs, not just the last one.  Merging sums stack/phase values and
    recomputes nothing else — reports are derived from the merged stacks.
    """

    def __init__(self, path: str):
        self.path = path
        self.data: dict[str, Any] = {
            "format": "repro-profile-v1", "queries": 0,
            "phases": {}, "stacks": {}}
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as handle:
                loaded = json.load(handle)
            if loaded.get("format") != "repro-profile-v1":
                raise ValueError(
                    f"{path} is not a repro profile store"
                    f" (format={loaded.get('format')!r})")
            self.data["queries"] = int(loaded.get("queries", 0))
            self.data["phases"] = dict(loaded.get("phases", {}))
            self.data["stacks"] = {k: dict(v) for k, v
                                   in loaded.get("stacks", {}).items()}

    def merge(self, snapshot: dict[str, Any]) -> None:
        """Fold a :meth:`Profiler.to_dict` snapshot into the store."""
        self.data["queries"] += int(snapshot.get("queries", 0))
        phases = self.data["phases"]
        for key, ms in snapshot.get("phases", {}).items():
            phases[key] = round(phases.get(key, 0.0) + ms, 3)
        stacks = self.data["stacks"]
        for stack, entry in snapshot.get("stacks", {}).items():
            slot = stacks.setdefault(
                stack, {"us": 0, "rows": 0, "calls": 0, "bytes": 0})
            for field in ("us", "rows", "calls", "bytes"):
                slot[field] += int(entry.get(field, 0))

    def save(self) -> str:
        with open(self.path, "w", encoding="utf-8") as handle:
            json.dump(_json_safe_tree(self.data), handle, indent=2)
            handle.write("\n")
        return self.path

    def to_collapsed(self) -> str:
        lines = [f"{stack} {entry['us']}"
                 for stack, entry in sorted(self.data["stacks"].items())]
        return "\n".join(lines) + ("\n" if lines else "")


def _json_safe_tree(value: Any) -> Any:
    if isinstance(value, dict):
        return {k: _json_safe_tree(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe_tree(v) for v in value]
    return _json_safe(value)
