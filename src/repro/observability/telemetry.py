"""The `Telemetry` bundle an engine carries: tracer + metrics + query log
+ profiler + (optional) flight recorder.

``Engine(telemetry=...)`` accepts either a :class:`Telemetry` instance or
a shorthand spec resolved by :func:`resolve_telemetry`:

* ``"off"`` / ``None`` / ``False`` — metrics and the query log stay on
  (they are cheap), tracing and profiling are disabled;
* ``"on"`` / ``True`` — tracing enabled as well;
* ``"profile"`` — the continuous profiler enabled (per-operator plan
  stats feeding the aggregate profile) without span capture;
* ``"full"`` — tracing *and* profiling;
* an existing :class:`Telemetry` — shared between engines, e.g. to
  aggregate metrics across dialect facades.

Keyword construction opens the remaining knobs::

    Telemetry(tracing=False, profiling=True,
              query_log_path="queries.jsonl",      # persistent JSONL sink
              flight_dir="flight/",                # diagnostic bundles
              slow_query_ms=50.0)

Each executed statement also gets a :class:`QueryTelemetry` attached to
its result (``result.telemetry``) summarising phase timings, row counts
and — for ``with+`` statements — the full per-iteration trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from .flight import FlightRecorder
from .metrics import MetricsRegistry
from .profiling import Profiler
from .querylog import DEFAULT_ROTATE_BYTES, QueryLog
from .tracing import Span, Tracer


class Telemetry:
    """Tracer + metrics registry + query log + profiler + flight recorder,
    wired as one unit."""

    def __init__(self, tracing: bool = False, query_log_size: int = 128,
                 slow_query_ms: float = 100.0, profiling: bool = False,
                 query_log_path: str | None = None,
                 query_log_rotate_bytes: int = DEFAULT_ROTATE_BYTES,
                 flight_dir: str | None = None, flight_max_bundles: int = 32,
                 flight_max_rows: int | None = None):
        self.tracer = Tracer(enabled=tracing)
        self.metrics = MetricsRegistry()
        self.query_log = QueryLog(size=query_log_size, slow_ms=slow_query_ms,
                                  jsonl_path=query_log_path,
                                  rotate_bytes=query_log_rotate_bytes)
        self.profiler = Profiler(enabled=profiling)
        self.flight: FlightRecorder | None = None
        if flight_dir is not None:
            kwargs: dict[str, Any] = {"max_bundles": flight_max_bundles}
            if flight_max_rows is not None:
                kwargs["max_rows_per_table"] = flight_max_rows
            self.flight = FlightRecorder(flight_dir, **kwargs)

    @property
    def tracing(self) -> bool:
        return self.tracer.enabled

    @property
    def profiling(self) -> bool:
        return self.profiler.enabled

    def reset(self) -> None:
        self.tracer.reset()
        self.metrics.reset()
        self.query_log.clear()
        self.profiler.reset()


def resolve_telemetry(spec: Any) -> Telemetry:
    """Map an ``Engine(telemetry=...)`` argument to a :class:`Telemetry`."""
    if isinstance(spec, Telemetry):
        return spec
    if spec in (None, False, "off"):
        return Telemetry(tracing=False)
    if spec in (True, "on"):
        return Telemetry(tracing=True)
    if spec == "profile":
        return Telemetry(tracing=False, profiling=True)
    if spec == "full":
        return Telemetry(tracing=True, profiling=True)
    raise ValueError(
        f"telemetry must be 'on', 'off', 'profile', 'full', or a Telemetry"
        f" instance, got {spec!r}")


@dataclass
class QueryTelemetry:
    """Per-query summary attached to execution results."""

    #: Phase name -> wall milliseconds ("parse", "plan", "optimize",
    #: "execute"; recursive statements report "plan" as accumulated
    #: branch-planning time inside the loop).
    phases: dict[str, float] = field(default_factory=dict)
    rows: int = 0
    iterations: int = 0
    #: The query's root span when tracing was enabled, else ``None``.
    span: Span | None = None
    #: For ``with+``: the IterationStat sequence (shared with the
    #: result's ``per_iteration`` list).
    per_iteration: Sequence[Any] = ()

    @property
    def total_ms(self) -> float:
        return sum(self.phases.values())

    @property
    def convergence(self) -> tuple[int, ...]:
        """Delta cardinality per iteration — the convergence trajectory."""
        return tuple(stat.delta_rows for stat in self.per_iteration)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "phases": {k: round(v, 3) for k, v in self.phases.items()},
            "total_ms": round(self.total_ms, 3),
            "rows": self.rows,
            "iterations": self.iterations,
        }
        if self.per_iteration:
            out["convergence"] = list(self.convergence)
        return out
