"""The engine's query log: a bounded ring buffer of executed statements.

Every statement the engine runs is appended (SQL text truncated, phase
wall-times, rows returned, recursion iterations, storage backend); the
buffer keeps the most recent ``size`` entries.  Entries whose total wall
time crosses the configured slow-query threshold are flagged, so a
traffic-serving deployment can scrape regressions without keeping full
traces on.

Optionally the log also streams to disk: construct with
``jsonl_path=...`` (or ``Telemetry(query_log_path=...)``) and every
entry is appended as one JSON line the moment it is recorded, so logs
survive the process.  Rotation is size-based and single-generation:
when the file would exceed ``rotate_bytes`` (default 16 MiB) it is
renamed to ``<path>.1`` — replacing any previous ``.1`` — and a fresh
file is started, bounding disk use at roughly two generations.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, IO

#: SQL text longer than this is truncated in the log (with an ellipsis).
MAX_SQL_LENGTH = 500

#: Default JSONL rotation threshold (bytes).
DEFAULT_ROTATE_BYTES = 16 * 1024 * 1024


@dataclass
class QueryLogEntry:
    """One executed statement."""

    sql: str
    kind: str                   # "select" | "recursive" | "analyze" | "error"
    total_ms: float
    phases: dict[str, float] = field(default_factory=dict)
    rows: int = 0
    iterations: int = 0
    slow: bool = False
    #: Physical table storage backend the engine ran with.
    storage: str = "rows"
    #: Exception type name when the statement failed, else ``None``.
    error: str | None = None
    #: Plans compiled, and kept plans reused (0 compiled: all cached).
    plans_compiled: int = 0
    plan_cache_hits: int = 0
    #: Wall-clock (``time.time()``) at completion.
    timestamp: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "sql": self.sql,
            "kind": self.kind,
            "total_ms": round(self.total_ms, 3),
            "phases": {k: round(v, 3) for k, v in self.phases.items()},
            "rows": self.rows,
            "iterations": self.iterations,
            "slow": self.slow,
            "storage": self.storage,
            "error": self.error,
            "plans_compiled": self.plans_compiled,
            "plan_cache_hits": self.plan_cache_hits,
            "timestamp": self.timestamp,
        }


class QueryLog:
    """Ring buffer of :class:`QueryLogEntry` with a slow-query threshold
    and an optional persistent JSONL sink."""

    def __init__(self, size: int = 128, slow_ms: float = 100.0,
                 jsonl_path: str | None = None,
                 rotate_bytes: int = DEFAULT_ROTATE_BYTES):
        if size < 1:
            raise ValueError("query log needs at least one slot")
        self.slow_ms = slow_ms
        self.jsonl_path = jsonl_path
        self.rotate_bytes = rotate_bytes
        self._sink: IO[str] | None = None
        self._entries: deque[QueryLogEntry] = deque(maxlen=size)

    @property
    def size(self) -> int:
        return self._entries.maxlen or 0

    def record(self, sql: str, kind: str, total_ms: float,
               phases: dict[str, float] | None = None, rows: int = 0,
               iterations: int = 0, storage: str = "rows",
               error: str | None = None, plans_compiled: int = 0,
               plan_cache_hits: int = 0) -> QueryLogEntry:
        text = sql if len(sql) <= MAX_SQL_LENGTH \
            else sql[:MAX_SQL_LENGTH] + "…"
        entry = QueryLogEntry(
            sql=text, kind=kind, total_ms=total_ms,
            phases=dict(phases or {}), rows=rows, iterations=iterations,
            slow=total_ms >= self.slow_ms, storage=storage,
            error=error, plans_compiled=plans_compiled,
            plan_cache_hits=plan_cache_hits, timestamp=time.time())
        self._entries.append(entry)
        if self.jsonl_path is not None:
            self._append_jsonl(entry)
        return entry

    # -- JSONL sink ----------------------------------------------------------

    def _append_jsonl(self, entry: QueryLogEntry) -> None:
        line = json.dumps(entry.to_dict(), separators=(",", ":"),
                          default=str) + "\n"
        if self._sink is None:
            self._sink = open(self.jsonl_path, "a", encoding="utf-8")
        if self._sink.tell() + len(line) > self.rotate_bytes \
                and self._sink.tell() > 0:
            self._sink.close()
            os.replace(self.jsonl_path, self.jsonl_path + ".1")
            self._sink = open(self.jsonl_path, "a", encoding="utf-8")
        self._sink.write(line)
        self._sink.flush()

    def close(self) -> None:
        """Close the JSONL sink, if open (the ring buffer stays usable)."""
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    # -- queries -------------------------------------------------------------

    def entries(self) -> list[QueryLogEntry]:
        """Oldest-first list of retained entries."""
        try:
            return list(self._entries)
        except RuntimeError:  # pragma: no cover - scrape during append
            return list(self._entries)

    def slow_queries(self) -> list[QueryLogEntry]:
        return [e for e in self.entries() if e.slow]

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)
