"""Export round-trips: Chrome traces validate against the checked-in
schema (the CI contract) and the Prometheus exposition parses back."""

import json
import pathlib

import pytest

from repro.observability import MetricsRegistry
from repro.relational import Engine

from .validate_trace import SchemaError, validate

SCHEMA_PATH = pathlib.Path(__file__).parent / "trace_schema.json"

RECURSIVE_SQL = """
with R(F, T) as (
  (select F, T from E where F = 1)
  union
  (select R.F, E.T from R, E where R.T = E.F)
)
select count(*) as n from R
"""

@pytest.fixture(scope="module")
def schema() -> dict:
    return json.loads(SCHEMA_PATH.read_text())


def traced_engine(**kwargs) -> Engine:
    engine = Engine("oracle", telemetry="on", **kwargs)
    engine.database.load_edge_table(
        "E", [(i, (i * 3 + 1) % 30) for i in range(60)], weighted=False)
    return engine


class TestChromeTraceSchema:
    def test_engine_export_conforms(self, schema, tmp_path):
        engine = traced_engine()
        engine.execute_detailed(RECURSIVE_SQL)
        engine.execute("select count(*) as n from __iterations__")
        path = tmp_path / "trace.json"
        engine.tracer.export_chrome(str(path))
        trace = json.loads(path.read_text())
        validate(trace, schema)
        names = [event["name"] for event in trace["traceEvents"]]
        for expected in ("query", "parse", "execute", "iteration",
                        "branch"):
            assert expected in names

    def test_validator_rejects_malformed_events(self, schema):
        good = traced_engine()
        good.execute("select count(*) as n from E")
        trace = good.tracer.to_chrome_trace()
        trace["traceEvents"][0].pop("ph")
        with pytest.raises(SchemaError, match="ph"):
            validate(trace, schema)

    def test_validator_rejects_wrong_phase_type(self, schema):
        trace = {"displayTimeUnit": "ms", "traceEvents": [{
            "name": "query", "cat": "repro", "ph": "B",
            "ts": 0, "dur": 1, "pid": 1, "tid": 1}]}
        with pytest.raises(SchemaError, match="ph"):
            validate(trace, schema)

    def test_validator_rejects_unknown_schema_keywords(self):
        with pytest.raises(SchemaError, match="unsupported"):
            validate({}, {"patternProperties": {}})


def _parse_prometheus(text: str) -> dict[str, float]:
    """Sample name+labels -> value, skipping comments."""
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, value = line.rsplit(" ", 1)
        samples[name] = float(value)
    return samples


class TestPrometheusRoundTrip:
    def test_engine_exposition_parses_back(self):
        engine = traced_engine()
        engine.execute_detailed(RECURSIVE_SQL)
        text = engine.metrics.to_prometheus()
        samples = _parse_prometheus(text)
        assert samples['repro_queries_total{kind="recursive"}'] == 1.0
        assert samples["repro_query_ms_count"] == 1.0
        assert samples["repro_query_ms_sum"] > 0.0
        # Histogram buckets are cumulative and capped by _count.
        buckets = sorted(
            (name, value) for name, value in samples.items()
            if name.startswith("repro_query_ms_bucket"))
        values = [value for _, value in buckets]
        assert values[-1] == samples["repro_query_ms_count"]
        # No families survive from the removed partitioned execution.
        for retired in ("repro_parallel_", "repro_worker_",
                        "repro_shipment_"):
            assert retired not in text

    def test_exposition_headers_precede_samples(self):
        registry = MetricsRegistry()
        registry.counter("repro_demo_total", "Demo.", kind="x").inc()
        lines = registry.to_prometheus().splitlines()
        assert lines[0] == "# HELP repro_demo_total Demo."
        assert lines[1] == "# TYPE repro_demo_total counter"
        assert lines[2] == 'repro_demo_total{kind="x"} 1'
