"""Metrics: counters, gauges and fixed-bucket histograms with labels.

A :class:`MetricsRegistry` hands out metric instances keyed by
``(name, labels)`` — asking for the same series twice returns the same
object, so hot paths can cache the instance and increment a plain
attribute::

    registry = MetricsRegistry()
    registry.counter("repro_queries_total", kind="select").inc()
    registry.histogram("repro_query_ms").observe(12.5)

Exports:

* :meth:`MetricsRegistry.to_prometheus` — the Prometheus text exposition
  format (``# HELP`` / ``# TYPE`` headers, ``_bucket``/``_sum``/``_count``
  histogram series with cumulative ``le`` buckets);
* :meth:`MetricsRegistry.to_json` — a plain dict for programmatic use.

Counters are a single float add per increment — cheap enough to stay on
even when tracing is off (the "always-on-cheap" half of the telemetry
subsystem).
"""

from __future__ import annotations

import math
from typing import Any, Sequence

#: Default latency buckets, in milliseconds (upper bounds).
DEFAULT_BUCKETS_MS = (1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
                      1000.0, 2500.0, 5000.0, 10000.0)

LabelKey = tuple[tuple[str, str], ...]

#: Quantiles summarised on histogram exposition (p50/p95/p99).
SUMMARY_QUANTILES = (0.5, 0.95, 0.99)


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram (cumulative buckets on export)."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS_MS):
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket")
        self.counts = [0] * (len(self.buckets) + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for position, upper in enumerate(self.buckets):
            if value <= upper:
                self.counts[position] += 1
                return
        self.counts[-1] += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs, ending at +Inf."""
        out: list[tuple[float, int]] = []
        running = 0
        for upper, count in zip(self.buckets, self.counts):
            running += count
            out.append((upper, running))
        out.append((math.inf, self.count))
        return out

    def quantile(self, q: float) -> float:
        """Estimated value at quantile *q* (0..1), interpolated linearly
        within the containing bucket — the classic ``histogram_quantile``
        estimate.  Observations above the highest finite bucket clamp to
        that bound; an empty histogram reports 0.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        lower = 0.0
        previous_cumulative = 0
        for upper, cumulative in self.cumulative():
            if cumulative >= target:
                if math.isinf(upper):
                    break  # landed in the +Inf bucket: clamp below
                bucket_count = cumulative - previous_cumulative
                if bucket_count == 0:
                    return upper
                fraction = (target - previous_cumulative) / bucket_count
                return lower + (upper - lower) * fraction
            lower = upper
            previous_cumulative = cumulative
        return self.buckets[-1]

    def summary(self) -> dict[str, float]:
        """The p50/p95/p99 estimates, keyed ``"p50"`` style."""
        return {f"p{int(q * 100)}": self.quantile(q)
                for q in SUMMARY_QUANTILES}


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_labels(key: LabelKey) -> str:
    if not key:
        return ""
    body = ",".join(f'{name}="{value}"' for name, value in key)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class MetricsRegistry:
    """Families of named metrics, each family one type, series per label
    set."""

    def __init__(self) -> None:
        #: family name -> (kind, help text)
        self._families: dict[str, tuple[str, str]] = {}
        #: (family name, label key) -> metric instance
        self._series: dict[tuple[str, LabelKey], Any] = {}

    # -- registration --------------------------------------------------------

    def _get(self, kind: str, cls, name: str, help_text: str,
             labels: dict[str, Any], *args):
        family = self._families.get(name)
        if family is None:
            self._families[name] = (kind, help_text)
        elif family[0] != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family[0]},"
                f" not {kind}")
        key = (name, _label_key(labels))
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = cls(*args)
        return series

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        return self._get("counter", Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        return self._get("gauge", Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] | None = None,
                  **labels: Any) -> Histogram:
        return self._get("histogram", Histogram, name, help, labels,
                         buckets if buckets is not None else DEFAULT_BUCKETS_MS)

    def reset(self) -> None:
        self._families.clear()
        self._series.clear()

    # -- export --------------------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        """``{family: {"type": ..., "series": [{"labels": ..., ...}]}}``."""
        out: dict[str, Any] = {}
        for name, (kind, help_text) in sorted(self._families.items()):
            series_out = []
            for (family, key), metric in sorted(self._series.items()):
                if family != name:
                    continue
                labels = dict(key)
                if kind == "histogram":
                    series_out.append({
                        "labels": labels,
                        "sum": metric.sum,
                        "count": metric.count,
                        "quantiles": {name: round(value, 6) for name, value
                                      in metric.summary().items()},
                        "buckets": [
                            {"le": "+Inf" if math.isinf(u) else u, "count": c}
                            for u, c in metric.cumulative()],
                    })
                else:
                    series_out.append({"labels": labels,
                                       "value": metric.value})
            out[name] = {"type": kind, "help": help_text,
                         "series": series_out}
        return out

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for name, (kind, help_text) in sorted(self._families.items()):
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for (family, key), metric in sorted(self._series.items()):
                if family != name:
                    continue
                if kind == "histogram":
                    for upper, cumulative in metric.cumulative():
                        le = "+Inf" if math.isinf(upper) \
                            else _format_value(upper)
                        bucket_key = key + (("le", le),)
                        lines.append(f"{name}_bucket"
                                     f"{_render_labels(bucket_key)}"
                                     f" {cumulative}")
                    lines.append(f"{name}_sum{_render_labels(key)}"
                                 f" {_format_value(metric.sum)}")
                    lines.append(f"{name}_count{_render_labels(key)}"
                                 f" {metric.count}")
                    if metric.count:
                        # Summary-style quantile series next to the
                        # buckets, so dashboards get p50/p95/p99 without
                        # a histogram_quantile() detour.
                        for q in SUMMARY_QUANTILES:
                            quantile_key = key + (
                                ("quantile", _format_value(q)),)
                            lines.append(
                                f"{name}{_render_labels(quantile_key)}"
                                f" {_format_value(metric.quantile(q))}")
                else:
                    lines.append(f"{name}{_render_labels(key)}"
                                 f" {_format_value(metric.value)}")
        return "\n".join(lines) + ("\n" if lines else "")
