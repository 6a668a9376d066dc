"""Flight recorder: capture on slow/failing queries, bundle schema,
the bounded ring, and replay fidelity."""

import json
import re

import pytest

from repro.observability import (FlightRecorder, Telemetry, load_bundle,
                                 replay_bundle, result_digest)
from repro.relational import Engine
from repro.relational.errors import RelationalError

RECURSIVE_SQL = """
with R(F, T) as (
  (select F, T from E where F = 1)
  union
  (select R.F, E.T from R, E where R.T = E.F)
)
select count(*) as n from R
"""

EDGES = [(i, (i * 7 + 1) % 40) for i in range(120)]


def make_engine(tmp_path, slow_ms=0.0, **engine_kwargs):
    telemetry = Telemetry(flight_dir=str(tmp_path / "flight"),
                          slow_query_ms=slow_ms, profiling=True)
    engine = Engine("postgres", telemetry=telemetry, **engine_kwargs)
    engine.database.load_edge_table("E", EDGES, weighted=False)
    return engine


class TestCapture:
    def test_slow_query_writes_a_bundle(self, tmp_path):
        engine = make_engine(tmp_path, slow_ms=0.0)
        engine.execute_detailed(RECURSIVE_SQL)
        bundles = engine.telemetry.flight.bundles()
        assert len(bundles) == 1
        assert bundles[0].endswith("-slow.json")

    def test_fast_query_writes_nothing(self, tmp_path):
        engine = make_engine(tmp_path, slow_ms=1e9)
        engine.execute("select count(*) as n from E")
        assert engine.telemetry.flight.bundles() == []

    def test_failing_query_writes_an_error_bundle(self, tmp_path):
        engine = make_engine(tmp_path, slow_ms=1e9)
        with pytest.raises(RelationalError):
            engine.execute("select missing_column from E")
        bundles = engine.telemetry.flight.bundles()
        assert len(bundles) == 1
        assert bundles[0].endswith("-error.json")
        entry = engine.query_log.entries()[-1]
        assert entry.kind == "error"
        assert entry.error == "SchemaError"

    def test_ring_is_bounded(self, tmp_path):
        telemetry = Telemetry(flight_dir=str(tmp_path / "ring"),
                              slow_query_ms=0.0, flight_max_bundles=3)
        engine = Engine("postgres", telemetry=telemetry)
        engine.database.load_edge_table("E", EDGES[:10], weighted=False)
        for _ in range(6):
            engine.execute("select count(*) as n from E")
        bundles = telemetry.flight.bundles()
        assert len(bundles) == 3
        # The survivors are the three newest (highest sequence numbers).
        assert [path.rsplit("/", 1)[-1] for path in bundles] == [
            "flight-000004-slow.json", "flight-000005-slow.json",
            "flight-000006-slow.json"]


class TestBundleSchema:
    def test_bundle_shape(self, tmp_path):
        engine = make_engine(tmp_path)
        engine.execute_detailed(RECURSIVE_SQL)
        (path,) = engine.telemetry.flight.bundles()
        bundle = load_bundle(path)
        assert bundle["format"] == "repro-flight-v2"
        assert bundle["reason"] == "slow"
        assert bundle["kind"] == "recursive"
        assert set(bundle["engine"]) == {
            "dialect", "mode", "reference", "storage",
            "union_by_update_strategy"}
        assert bundle["error"] is None
        assert bundle["query"]["iterations"] > 0
        assert bundle["per_iteration"], "fixpoint trajectory captured"
        assert bundle["plan_reports"], "instrumented est-vs-actual reports"
        assert any("est_rows=" in report["report"]
                   for report in bundle["plan_reports"])
        table = bundle["tables"]["E"]
        assert table["truncated"] is False
        assert len(table["rows"]) == len(EDGES)
        assert bundle["statistics"]["E"]["row_count"] >= 0
        assert bundle["storage"]["E"]["rows"] == len(EDGES)
        assert bundle["result_digest"]

    def test_columnar_engine_is_labelled_and_gauged(self, tmp_path):
        engine = make_engine(tmp_path)
        engine.execute("select count(*) as n from E")
        (path,) = engine.telemetry.flight.bundles()
        bundle = load_bundle(path)
        assert bundle["engine"]["storage"] == "columnar"
        gauges = bundle["storage"]["E"]
        assert set(gauges) == {"storage", "rows", "index_rebuilds",
                               "incremental_index_ops", "row_assigns",
                               "resident_bytes"}
        assert gauges["resident_bytes"] > 0
        text = engine.metrics.to_prometheus()
        assert 'repro_storage_row_assigns{storage="columnar",table="E"}' \
            in text
        assert set(re.findall(r"^repro_storage_(\w+)\{", text, re.M)) == {
            "index_rebuilds", "incremental_index_ops", "row_assigns",
            "resident_bytes"}

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "not-a-bundle.json"
        path.write_text(json.dumps({"format": "other"}))
        with pytest.raises(ValueError):
            load_bundle(str(path))

    def test_load_rejects_bundles_that_name_three_knobs(self, tmp_path):
        """The first format recorded executor, optimizer and storage; the
        engine takes one ``reference`` switch now."""
        path = tmp_path / "old.json"
        path.write_text(json.dumps({
            "format": "repro-flight-v1",
            "engine": {"dialect": "oracle", "mode": "with+",
                       "executor": "tuple", "optimizer": "cost",
                       "storage": "columnar"}}))
        with pytest.raises(ValueError, match="repro-flight-v1"):
            load_bundle(str(path))


class TestReplay:
    def test_slow_bundle_reproduces_result_digest(self, tmp_path):
        engine = make_engine(tmp_path)
        engine.execute_detailed(RECURSIVE_SQL)
        (path,) = engine.telemetry.flight.bundles()
        outcome = replay_bundle(path)
        assert outcome.outcome == "result"
        assert outcome.reproduced
        assert "REPRODUCED" in outcome.render()

    def test_error_bundle_reproduces_error_type(self, tmp_path):
        engine = make_engine(tmp_path, slow_ms=1e9)
        with pytest.raises(RelationalError):
            engine.execute("select missing_column from E")
        (path,) = engine.telemetry.flight.bundles()
        outcome = replay_bundle(path)
        assert outcome.outcome == "error"
        assert outcome.reproduced
        assert outcome.error_type == "SchemaError"

    def test_columnar_bundle_replays_on_columnar(self, tmp_path):
        engine = make_engine(tmp_path)
        engine.execute_detailed(RECURSIVE_SQL)
        (path,) = engine.telemetry.flight.bundles()
        outcome = replay_bundle(path)
        assert outcome.reproduced

    def test_reference_bundle_replays_on_the_reference_profile(
            self, tmp_path, monkeypatch):
        engine = make_engine(tmp_path, reference=True)
        engine.execute_detailed(RECURSIVE_SQL)
        (path,) = engine.telemetry.flight.bundles()
        assert load_bundle(path)["engine"]["reference"] is True
        built = []
        original = Engine.__init__

        def spy(self, *args, **kwargs):
            original(self, *args, **kwargs)
            built.append((self.reference, self.storage))

        monkeypatch.setattr(Engine, "__init__", spy)
        assert replay_bundle(path).reproduced
        assert built == [(True, "rows")]

    def test_bundle_with_retired_parallel_fields_replays(self, tmp_path):
        # Bundles written before partitioned execution was removed carry
        # a "parallel" section and per-iteration "worker_ms"; replay
        # never read either, so they still reproduce.
        engine = make_engine(tmp_path)
        engine.execute_detailed(RECURSIVE_SQL)
        (path,) = engine.telemetry.flight.bundles()
        bundle = json.loads(open(path).read())
        assert "parallel" not in bundle
        bundle["parallel"] = {"configured": 2, "effective": 2,
                              "incident": None}
        for entry in bundle["per_iteration"]:
            entry["worker_ms"] = [0.5, 0.7]
        with open(path, "w") as handle:
            json.dump(bundle, handle)
        assert replay_bundle(path).reproduced

    def test_tampered_data_diverges(self, tmp_path):
        engine = make_engine(tmp_path)
        engine.execute("select count(*) as n from E")
        (path,) = engine.telemetry.flight.bundles()
        bundle = json.loads(open(path).read())
        bundle["tables"]["E"]["rows"] = bundle["tables"]["E"]["rows"][:5]
        with open(path, "w") as handle:
            json.dump(bundle, handle)
        outcome = replay_bundle(path)
        assert not outcome.reproduced

    def test_truncated_bundle_refuses_replay(self, tmp_path):
        telemetry = Telemetry(flight_dir=str(tmp_path / "flight"),
                              slow_query_ms=0.0, flight_max_rows=10)
        engine = Engine("postgres", telemetry=telemetry)
        engine.database.load_edge_table("E", EDGES, weighted=False)
        engine.execute("select count(*) as n from E")
        (path,) = telemetry.flight.bundles()
        assert load_bundle(path)["tables"]["E"]["truncated"] is True
        with pytest.raises(ValueError, match="truncated"):
            replay_bundle(path)


class TestResultDigest:
    def test_order_insensitive(self):
        assert result_digest([(1, "a"), (2, "b")]) == \
            result_digest([(2, "b"), (1, "a")])

    def test_value_sensitive(self):
        assert result_digest([(1,)]) != result_digest([(2,)])


class TestRecorderRing:
    def test_sequence_survives_restart(self, tmp_path):
        directory = str(tmp_path / "flight")
        first = FlightRecorder(directory)
        engine = Engine("postgres")
        engine.database.load_edge_table("E", EDGES[:5], weighted=False)
        first.record(engine, reason="slow", sql="select 1", kind="select",
                     total_ms=1.0, phases={})
        second = FlightRecorder(directory)
        path = second.record(engine, reason="slow", sql="select 1",
                             kind="select", total_ms=1.0, phases={})
        assert path.endswith("flight-000002-slow.json")

    def test_minimum_one_slot(self, tmp_path):
        with pytest.raises(ValueError):
            FlightRecorder(str(tmp_path), max_bundles=0)
