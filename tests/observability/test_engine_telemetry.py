"""Engine-level telemetry: phase spans, fixpoint introspection, the query
log, engine counters, and the telemetry-on/off identity guarantee."""

import pytest

from repro.core.algorithms.registry import ALGORITHMS
from repro.datasets import preferential_attachment, random_dag
from repro.observability import Telemetry, resolve_telemetry
from repro.relational import Engine

RECURSIVE_SQL = """
with R(F, T) as (
  (select F, T from E where F = 1)
  union
  (select R.F, E.T from R, E where R.T = E.F)
)
select count(*) as n from R
"""


def make_engine(**kwargs) -> Engine:
    engine = Engine("postgres", **kwargs)
    engine.database.load_edge_table(
        "E", [(i, (i * 7 + 1) % 40) for i in range(120)], weighted=False)
    return engine


class TestResolveTelemetry:
    def test_specs(self):
        assert not resolve_telemetry("off").tracing
        assert not resolve_telemetry(None).tracing
        assert not resolve_telemetry(False).tracing
        assert resolve_telemetry("on").tracing
        assert resolve_telemetry(True).tracing
        assert not resolve_telemetry("on").profiling
        profile = resolve_telemetry("profile")
        assert profile.profiling and not profile.tracing
        full = resolve_telemetry("full")
        assert full.profiling and full.tracing
        shared = Telemetry()
        assert resolve_telemetry(shared) is shared
        with pytest.raises(ValueError):
            resolve_telemetry("loud")

    def test_repro_telemetry_env_enables_tracing(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "on")
        engine = make_engine(telemetry=None)
        assert engine.telemetry.tracing
        engine.execute_detailed(RECURSIVE_SQL)
        (query,) = engine.tracer.find("query")
        assert query.find("iteration")


class TestPhaseSpans:
    def test_plain_query_has_four_nested_phases(self):
        engine = make_engine(telemetry="on")
        engine.execute("select count(*) as n from E where F < 10")
        (query,) = engine.tracer.find("query")
        assert [c.name for c in query.children] == [
            "parse", "plan", "optimize", "execute"]
        execute = query.children[-1]
        operators = execute.find("op:Seq Scan")
        assert operators, "execute span should nest per-operator spans"
        scan = operators[0]
        assert scan.attrs["rows"] == 120
        assert scan.attrs["calls"] == 1
        assert "est_rows" in scan.attrs

    def test_recursive_query_nests_iterations_and_branches(self):
        engine = make_engine(telemetry="on")
        result = engine.execute_detailed(RECURSIVE_SQL)
        (query,) = engine.tracer.find("query")
        iterations = query.find("iteration")
        assert len(iterations) == result.iterations
        first = iterations[0]
        assert first.attrs["index"] == 1
        assert first.attrs["delta_rows"] == \
            result.per_iteration[0].delta_rows
        assert query.find("branch")
        # Cached branch plans are grafted with their cumulative operator
        # stats once the loop finishes.
        assert any(span.name.startswith("plan:")
                   for span in query.find("execute")[0].children)

    def test_phases_recorded_even_with_tracing_off(self):
        engine = make_engine(telemetry="off")
        result = engine.execute_detailed(RECURSIVE_SQL)
        telemetry = result.telemetry
        assert set(telemetry.phases) == {"parse", "plan", "execute"}
        assert telemetry.total_ms > 0
        assert telemetry.span is None
        assert engine.tracer.roots == []


class TestFixpointIntrospection:
    def test_result_telemetry_convergence(self):
        engine = make_engine()
        result = engine.execute_detailed(RECURSIVE_SQL)
        telemetry = result.telemetry
        assert telemetry.iterations == result.iterations
        assert telemetry.convergence == result.convergence
        assert len(telemetry.convergence) == result.iterations
        assert telemetry.convergence[-1] > 0

    def test_iteration_stats_expose_update_counts(self):
        engine = make_engine()
        result = engine.execute_detailed(RECURSIVE_SQL)
        for stat in result.per_iteration:
            assert stat.inserted + stat.overwritten + stat.pruned == \
                stat.delta_rows
            assert stat.antijoin_pruned >= 0
            assert len(stat.branch_seconds) == 1
        # UNION distinct: fresh rows are inserts, duplicates are pruned.
        assert result.per_iteration[0].inserted > 0

    def test_union_all_counts_all_as_inserted(self):
        engine = make_engine()
        result = engine.execute_detailed("""
            with R(x) as (
              (select 1 as x)
              union all
              (select x + 1 from R where x < 5)
            ) select * from R""")
        for stat in result.per_iteration:
            assert stat.inserted == stat.delta_rows
            assert stat.overwritten == 0

    def test_iterations_virtual_relation(self):
        engine = make_engine()
        result = engine.execute_detailed(RECURSIVE_SQL)
        rows = engine.execute(
            "select iteration, delta_rows, total_rows, inserted,"
            " overwritten, pruned, antijoin_pruned"
            " from __iterations__").rows
        assert len(rows) == result.iterations
        by_iteration = {row[0]: row for row in rows}
        for stat in result.per_iteration:
            row = by_iteration[stat.iteration]
            assert row[1] == stat.delta_rows
            assert row[2] == stat.total_rows
            assert row[3] == stat.inserted
        # Refreshed per recursive statement, not accumulated.
        engine.execute_detailed(RECURSIVE_SQL)
        again = engine.execute("select count(*) from __iterations__").rows
        assert again[0][0] == result.iterations

    def test_stable_result_repr(self):
        engine = make_engine()
        result = engine.execute_detailed(RECURSIVE_SQL)
        text = repr(result)
        assert text.startswith("WithExecutionResult(rows=")
        assert f"iterations={result.iterations}" in text
        assert "plans_compiled=" in text
        assert "plan_cache_hits=" in text
        assert "replans=" in text
        assert "hit_maxrecursion=False" in text


class TestQueryLogAndMetrics:
    def test_query_log_records_kinds(self):
        engine = make_engine()
        engine.execute("select count(*) as n from E")
        engine.execute_detailed(RECURSIVE_SQL)
        engine.execute("analyze E")
        kinds = [entry.kind for entry in engine.query_log.entries()]
        assert kinds == ["select", "recursive", "analyze"]
        recursive = engine.query_log.entries()[1]
        assert recursive.iterations > 0
        assert recursive.rows == 1

    def test_slow_query_flagging(self):
        telemetry = Telemetry(slow_query_ms=0.0)
        engine = make_engine(telemetry=telemetry)
        engine.execute("select count(*) as n from E")
        assert engine.query_log.slow_queries()
        counters = telemetry.metrics.to_json()
        assert counters["repro_slow_queries_total"]["series"][0]["value"] >= 1

    def test_engine_counters(self):
        engine = make_engine()
        result = engine.execute_detailed(RECURSIVE_SQL)
        data = engine.metrics.to_json()

        def value(name, **labels):
            for series in data[name]["series"]:
                if series["labels"] == labels:
                    return series["value"]
            raise AssertionError(f"no series {name} {labels}")

        assert value("repro_queries_total", kind="recursive") == 1
        assert value("repro_iterations_total") == result.iterations
        assert value("repro_plan_cache_hits_total") == \
            result.plan_cache_hits
        assert value("repro_plans_compiled_total") == result.plans_compiled
        assert data["repro_query_ms"]["series"][0]["count"] == 1
        phase_labels = {series["labels"]["phase"]
                        for series in data["repro_phase_ms_total"]["series"]}
        assert {"parse", "plan", "execute"} <= phase_labels

    def test_planner_join_choice_counter(self):
        engine = make_engine()
        engine.execute("select count(*) as n from E as A, E as B"
                       " where A.T = B.F")
        data = engine.metrics.to_json()
        series = data["repro_planner_join_choices_total"]["series"]
        assert sum(entry["value"] for entry in series) >= 1

    def test_shared_telemetry_across_engines(self):
        shared = Telemetry()
        first = make_engine(telemetry=shared)
        second = make_engine(telemetry=shared)
        first.execute("select count(*) as n from E")
        second.execute("select count(*) as n from E")
        assert len(shared.query_log) == 2

    @pytest.mark.parametrize("reference,storage",
                             [(True, "rows"), (False, "columnar")],
                             ids=["rows", "columnar"])
    def test_storage_backend_labels_entries_and_span_roots(self, reference,
                                                           storage):
        engine = make_engine(telemetry="on", reference=reference)
        engine.execute("select count(*) as n from E")
        engine.execute_detailed(RECURSIVE_SQL)
        assert all(entry.storage == storage
                   for entry in engine.query_log.entries())
        roots = engine.tracer.find("query")
        assert roots
        assert all(span.attrs["storage"] == storage for span in roots)

    def test_failed_statement_logged_with_error_kind(self):
        engine = make_engine()
        with pytest.raises(Exception):
            engine.execute("select no_such_column from E")
        entry = engine.query_log.entries()[-1]
        assert entry.kind == "error"
        assert entry.error == "SchemaError"
        data = engine.metrics.to_json()
        series = data["repro_query_errors_total"]["series"]
        assert series[0]["labels"] == {"error": "SchemaError"}

    def test_cardinality_misestimate_counter_has_direction_labels(self):
        from repro.observability import record_plan
        from repro.relational.physical import StatsSink, recording
        from repro.relational.sql.compiler import QueryRunner
        from repro.relational.sql.parser import parse_statement

        engine = make_engine()
        plan = QueryRunner(engine.database, engine.policy).plan(
            parse_statement("select F from E"))
        with recording(StatsSink()) as stats:
            stats.watch(plan)
            plan.execute()
        # Force both drift directions across the tree: the root far
        # under-estimated, every other executed node far over-estimated.
        nodes = [node for node in [plan] + list(plan.children())
                 if stats.get(node) is not None]
        nodes[0].estimated_rows = 1
        for node in nodes[1:]:
            node.estimated_rows = stats[node].rows * 100 + 100
        record_plan(plan, stats, metrics=engine.telemetry.metrics)
        data = engine.metrics.to_json()
        series = data["repro_cardinality_misestimates_total"]["series"]
        directions = {entry["labels"]["direction"] for entry in series}
        assert "under" in directions
        assert all(entry["labels"]["operator"] for entry in series)


def _run(key, graph, **engine_kwargs):
    info = ALGORITHMS[key]
    engine = Engine("oracle", **engine_kwargs)
    return info.run_sql(engine, graph, **dict(info.bench_kwargs or {}))


class TestTelemetryIdentity:
    """Telemetry on must be byte-identical to telemetry off — it observes
    the execution, never changes it."""

    @pytest.mark.parametrize(
        "key", sorted(k for k, info in ALGORITHMS.items() if info.has_sql))
    def test_registry_identical_with_tracing_on(self, key):
        info = ALGORITHMS[key]
        graph = (random_dag(60, 2, seed=3) if info.needs_dag
                 else preferential_attachment(120, 3, seed=3))
        off = _run(key, graph)
        on = _run(key, graph, telemetry="on")
        assert off.values == on.values
        assert off.iterations == on.iterations

    @pytest.mark.parametrize("reference", [True, False],
                             ids=["tuple", "batch"])
    def test_executors_identical_with_tracing_on(self, reference):
        graph = preferential_attachment(120, 3, seed=3)
        info = ALGORITHMS["PR"]
        kwargs = dict(info.bench_kwargs or {})
        off = info.run_sql(Engine("oracle", reference=reference), graph,
                           **kwargs)
        on = info.run_sql(Engine("oracle", reference=reference,
                                 telemetry="on"), graph, **kwargs)
        assert off.values == on.values
        assert off.iterations == on.iterations
