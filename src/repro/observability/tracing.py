"""Tracing: nested timed spans with JSON and Chrome trace-event export.

A :class:`Tracer` records a forest of :class:`Span` objects — one per
timed region, nested by dynamic scope::

    tracer = Tracer()
    with tracer.span("query", sql="select 1"):
        with tracer.span("parse"):
            ...
        with tracer.span("execute"):
            ...

Spans carry a name, free-form attributes, a start offset and a duration
(both seconds relative to the tracer's epoch).  Two exports are
supported:

* :meth:`Tracer.to_json` — the span forest as nested JSON, for
  programmatic consumption;
* :meth:`Tracer.to_chrome_trace` — the flat ``traceEvents`` form the
  ``chrome://tracing`` / Perfetto viewers load directly (complete
  ``"ph": "X"`` events, microsecond timestamps).

A disabled tracer (``Tracer(enabled=False)``) keeps every call site
valid while doing almost no work — ``span()`` yields ``None`` without
allocating a :class:`Span` — so telemetry-off engines pay only a
context-manager entry per phase, not per row.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Iterator


def _json_safe(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class Span:
    """One timed region: name, attributes, children, start + duration
    (seconds relative to the owning tracer's epoch)."""

    __slots__ = ("name", "start", "duration", "attrs", "children")

    def __init__(self, name: str, start: float = 0.0, duration: float = 0.0,
                 attrs: dict[str, Any] | None = None):
        self.name = name
        self.start = start
        self.duration = duration
        self.attrs = dict(attrs or {})
        self.children: list["Span"] = []

    def child(self, name: str, start: float | None = None,
              duration: float = 0.0, **attrs: Any) -> "Span":
        """Attach a synthetic child span (used to graft per-operator
        timings, which operators record at their own boundaries rather
        than by entering a ``with`` block)."""
        span = Span(name, self.start if start is None else start,
                    duration, attrs)
        self.children.append(span)
        return span

    def find(self, name: str) -> list["Span"]:
        """All descendant spans (self included) named *name*."""
        found = [self] if self.name == name else []
        for child in self.children:
            found.extend(child.find(name))
        return found

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "start_ms": round(self.start * 1000, 6),
            "duration_ms": round(self.duration * 1000, 6),
            "attrs": {k: _json_safe(v) for k, v in self.attrs.items()},
            "children": [c.to_dict() for c in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, {self.duration * 1000:.3f} ms,"
                f" children={len(self.children)})")


class Tracer:
    """Collects spans; disabled instances are cheap pass-throughs."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._epoch = time.perf_counter()

    # -- recording -----------------------------------------------------------

    def _now(self) -> float:
        return time.perf_counter() - self._epoch

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span | None]:
        """Open a span for the duration of the ``with`` block."""
        if not self.enabled:
            yield None
            return
        span = Span(name, start=self._now(), attrs=attrs)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.duration = self._now() - span.start

    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def reset(self) -> None:
        self.roots = []
        self._stack = []
        self._epoch = time.perf_counter()

    # -- queries -------------------------------------------------------------

    def find(self, name: str) -> list[Span]:
        found: list[Span] = []
        for root in self.roots:
            found.extend(root.find(name))
        return found

    # -- export --------------------------------------------------------------

    def to_json(self) -> str:
        """The span forest as nested JSON text."""
        return json.dumps([root.to_dict() for root in self.roots], indent=2)

    def to_chrome_trace(self) -> dict[str, Any]:
        """The Chrome trace-event form (load in ``chrome://tracing`` or
        https://ui.perfetto.dev): complete events, microsecond units."""
        events: list[dict[str, Any]] = []

        def emit(span: Span) -> None:
            events.append({
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": int(span.start * 1_000_000),
                "dur": max(int(span.duration * 1_000_000), 1),
                "pid": 1,
                "tid": 1,
                "args": {k: _json_safe(v) for k, v in span.attrs.items()},
            })
            for child in span.children:
                emit(child)

        for root in self.roots:
            emit(root)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def export_chrome(self, path: str) -> str:
        """Write the Chrome trace to *path*; returns the path."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(), handle, indent=2)
        return path
