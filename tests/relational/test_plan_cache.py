"""Plans kept across statements: the engine's plan cache.

A statement run again on the same engine reuses the plans its first run
compiled — a with+ statement's initial queries, branches and body, or a
plain SELECT's one plan — while they stay valid: the tables they scan are
the catalog's and have not drifted past ``REPLAN_FACTOR``, no ANALYZE
ran, and each recursive relation keeps its schema.
"""

from __future__ import annotations

import gc
import types

import pytest

from repro.core.algorithms import bellman_ford, wcc
from repro.core.algorithms.common import load_graph
from repro.datasets import preferential_attachment
from repro.relational import (
    REFERENCE_PROFILE,
    Engine,
    ExecutionError,
    RecursionLimitError,
    Relation,
    Schema,
    SqlType,
    WarmStart,
    recursive,
)
from repro.relational.database import Database
from repro.relational.planner import CostBasedPolicy
from repro.relational.sql.compiler import QueryRunner
from repro.relational.table import Table

PROFILES = {"default": {}, "reference": dict(REFERENCE_PROFILE)}

INT_SEED = Schema.of(("ID", SqlType.INTEGER), ("vw", SqlType.INTEGER))

JOIN_SQL = ("select A.F, count(*) as c from E as A, E as B"
            " where A.T = B.F and A.F < 20 group by A.F")


@pytest.fixture(params=sorted(PROFILES))
def profile(request) -> dict:
    return PROFILES[request.param]


def graph_engine(profile: dict, seed: int = 4, **extra) -> Engine:
    engine = Engine("oracle", **profile, **extra)
    load_graph(engine, preferential_attachment(120, 3.0, directed=True,
                                               seed=seed))
    wcc.prepare_symmetric_edges(engine)
    return engine


def fresh_twin(engine: Engine, profile: dict) -> Engine:
    """A new engine over copies of *engine*'s base tables."""
    twin = Engine("oracle", **profile)
    for table in engine.database.all_tables():
        if not table.temporary:
            twin.database.register(table.name, table.snapshot())
    return twin


@pytest.fixture
def plan_calls(monkeypatch) -> list:
    """One entry per QueryRunner.plan call from outside the compiler."""
    calls = []
    plan = QueryRunner.plan

    def counting(self, statement):
        calls.append(statement)
        return plan(self, statement)

    monkeypatch.setattr(QueryRunner, "plan", counting)
    return calls


def kept_plans(engine: Engine) -> list:
    """Every plan root the engine's cache holds."""
    roots = []
    for entry in engine._plan_cache._entries.values():
        for item in entry.plans.values():
            roots.extend(item.all_plans() if hasattr(item, "all_plans")
                         else [item])
    return roots


def walk(node):
    yield node
    for child in node.children():
        yield from walk(child)


def rows(result) -> list:
    return sorted(result.relation.rows)


# -- reuse -------------------------------------------------------------------


def test_a_repeated_with_plus_statement_compiles_nothing(profile, plan_calls):
    engine = graph_engine(profile)
    first = engine.execute_detailed(wcc.sql())
    assert first.plans_compiled == 3  # initial query, branch, body
    plan_calls.clear()
    second = engine.execute_detailed(wcc.sql())
    assert second.plans_compiled == 0 and not plan_calls
    assert second.plan_cache_hits == second.iterations + 2
    assert rows(second) == rows(first)
    assert second.iterations == first.iterations


def test_a_repeated_select_compiles_nothing(profile, plan_calls):
    engine = graph_engine(profile)
    first = engine.execute_detailed(JOIN_SQL)
    assert (first.plans_compiled, first.plan_cache_hits) == (1, 0)
    plan_calls.clear()
    second = engine.execute_detailed(JOIN_SQL)
    assert (second.plans_compiled, second.plan_cache_hits) == (0, 1)
    assert not plan_calls
    assert rows(second) == rows(first)


def test_a_repeated_select_reads_no_stale_derived_table(profile):
    engine = graph_engine(profile)
    sql = "select count(*) as c from (select F from E where F < 10) as X"
    engine.execute(sql)
    engine.database.table("E").insert_many([(1, 500, 1.0), (3, 501, 1.0)])
    result = engine.execute_detailed(sql)
    assert result.plan_cache_hits == 1
    assert rows(result) == sorted(fresh_twin(engine, profile).execute(sql))


def test_a_kept_subquery_plan_reads_the_current_tables(profile):
    engine = graph_engine(profile)
    sql = "select F from E where T in (select F from E where F < 3)"
    engine.execute(sql)
    engine.database.table("E").insert_many([(500, 1, 1.0), (501, 2, 1.0)])
    result = engine.execute_detailed(sql)
    assert (result.plans_compiled, result.plan_cache_hits) == (0, 1)
    assert rows(result) == sorted(fresh_twin(engine, profile).execute(sql))


def test_in_bound_writes_are_seen_by_the_cached_plans(profile):
    engine = graph_engine(profile)
    statements = (bellman_ford.sql(0), JOIN_SQL)
    for sql in statements:
        engine.execute(sql)
    edges = engine.database.table("E")
    edges.insert_many([(0, 200, 0.5), (200, 201, 0.25), (3, 202, 1.0)])
    doomed = set(sorted(edges.rows)[5:9])
    assert edges.delete_where(lambda row: row in doomed) == 4
    twin = fresh_twin(engine, profile)
    for sql in statements:
        result = engine.execute_detailed(sql)
        assert result.plans_compiled == 0 and not result.replans
        assert rows(result) == sorted(twin.execute(sql).rows)


def test_the_cached_build_side_follows_the_base_table():
    engine = graph_engine({})
    engine.execute(bellman_ford.sql(0))
    (join,) = [node for root in kept_plans(engine) for node in walk(root)
               if getattr(node, "cached_build", False)]
    edges = engine.database.table("E")
    target = next(t for t in range(1, 120) if (0, t) not in
                  {row[:2] for row in edges.rows})
    edges.insert_many([(0, target, 0.001)])
    result = engine.execute_detailed(bellman_ford.sql(0))
    assert result.plans_compiled == 0
    assert dict(result.relation.rows)[target] == 0.001
    assert join in [node for root in kept_plans(engine)
                    for node in walk(root)]


# -- invalidation ------------------------------------------------------------


def test_a_recreated_table_replans(profile):
    engine = graph_engine(profile)
    sql = "select F, T from E where F < 30"
    engine.execute(sql)
    engine.database.drop_table("E")
    created = engine.database.create_table(
        "E", Schema.of(("F", SqlType.DOUBLE), ("T", SqlType.TEXT)),
        enforce_key=False)
    created.insert_many([(1.5, "a"), (40.0, "b"), (2.0, None)])
    result = engine.execute_detailed(sql)
    assert result.plans_compiled == 1
    assert result.replan_reasons == {"replaced": 1}
    assert rows(result) == [(1.5, "a"), (2.0, None)]


def test_analyze_replans(profile):
    engine = graph_engine(profile)
    engine.execute(wcc.sql())
    engine.execute("analyze E")
    result = engine.execute_detailed(wcc.sql())
    assert result.plans_compiled == 3
    assert result.replan_reasons == {"analyze": 1}
    assert engine.execute_detailed(wcc.sql()).plans_compiled == 0


def test_drift_past_the_replan_factor_replans(profile, monkeypatch):
    monkeypatch.setattr(CostBasedPolicy, "REPLAN_FACTOR", 2.0)
    engine = graph_engine(profile)
    engine.execute(JOIN_SQL)
    edges = engine.database.table("E")
    edges.insert_many([(u, u + 1, 1.0) for u in range(1000, 1000 + len(edges))])
    within = engine.execute_detailed(JOIN_SQL)
    assert within.plans_compiled == 0  # exactly doubled: not past 2x
    edges.insert_many([(u, u + 1, 1.0) for u in range(5000, 5010)])
    past = engine.execute_detailed(JOIN_SQL)
    assert past.plans_compiled == 1 and past.replan_reasons == {"drift": 1}
    assert rows(past) == sorted(fresh_twin(engine, profile).execute(JOIN_SQL))


def test_a_seed_of_another_schema_replans(profile):
    engine = graph_engine(profile)
    cold = engine.execute_detailed(wcc.sql())
    doubles = Schema.of(("ID", SqlType.INTEGER), ("vw", SqlType.DOUBLE))
    seed = Relation(doubles, [(row[0], float(row[0]))
                              for row in cold.relation.rows])
    warm = engine.execute_detailed(wcc.sql(),
                                  warm_start={"C": WarmStart(seed)})
    assert warm.replan_reasons == {"schema": 1}
    assert warm.plans_compiled == 2  # branch and body; no initial query
    twin = fresh_twin(engine, profile)
    expected = twin.execute_detailed(wcc.sql(),
                                    warm_start={"C": WarmStart(seed)})
    assert rows(warm) == rows(expected)
    assert [type(v) for v in warm.relation.rows[0]] == [int, float]


# -- recorded statements ------------------------------------------------------


def kept_roots(engine: Engine) -> set[int]:
    return {id(root) for root in kept_plans(engine)}


def test_explain_analyze_after_cached_runs_reports_actuals(profile):
    engine = graph_engine(profile)
    for _ in range(2):
        engine.execute(wcc.sql())
        engine.execute(JOIN_SQL)
    kept = kept_roots(engine)
    report = engine.explain_analyze(wcc.sql())
    assert "plans_compiled=0" in report and "actual rows=" in report
    assert "actual rows=" in engine.explain_analyze(JOIN_SQL)
    assert kept_roots(engine) == kept
    for sql in (wcc.sql(), JOIN_SQL):
        assert engine.execute_detailed(sql).plans_compiled == 0


def test_tracing_after_cached_runs_traces_the_kept_plans(profile):
    engine = graph_engine(profile)
    for _ in range(2):
        engine.execute(wcc.sql())
    kept = kept_roots(engine)
    engine.telemetry.tracer.enabled = True
    traced = engine.execute_detailed(wcc.sql())
    engine.telemetry.tracer.enabled = False
    assert traced.plans_compiled == 0
    spans = [span.name for span in walk_spans(traced.telemetry.span)]
    assert "plan:recursive branch" in spans
    assert kept_roots(engine) == kept
    assert engine.execute_detailed(wcc.sql()).plans_compiled == 0


def walk_spans(span):
    yield span
    for child in span.children:
        yield from walk_spans(child)


def test_telemetry_on_keeps_plans():
    engine = graph_engine({}, telemetry="on")
    assert engine.execute_detailed(wcc.sql()).plans_compiled == 3
    assert engine.execute_detailed(wcc.sql()).plans_compiled == 0
    assert engine._plan_cache._entries


# -- warm starts, failures, memory ------------------------------------------


def test_cold_and_warm_runs_share_the_entry(profile):
    engine = graph_engine(profile)
    twin = fresh_twin(engine, profile)
    cold = engine.execute_detailed(wcc.sql())
    seed = Relation(INT_SEED,
                    [(row[0], row[0]) for row in cold.relation.rows])
    warm = engine.execute_detailed(wcc.sql(),
                                  warm_start={"C": WarmStart(seed)})
    assert warm.plans_compiled == 0 and not warm.replans
    assert warm.plan_cache_hits == warm.iterations + 1  # branch, body
    assert rows(warm) == rows(cold)
    again = engine.execute_detailed(wcc.sql())
    assert again.plans_compiled == 0
    assert rows(again) == rows(twin.execute_detailed(wcc.sql()))


COUNTER_SQL = """with R(n) as (
  (select x from T)
  union all
  (select R.n + 1 + 0 / (L.stop - R.n) from R, L where R.n < L.lim)
)
select n from R"""


def counter_engine(profile: dict, lim: int, stop: int) -> Engine:
    engine = Engine("oracle", **profile)
    engine.database.register("T", Relation(
        Schema.of(("x", SqlType.INTEGER)), [(0,)]))
    engine.database.register("L", Relation(
        Schema.of(("lim", SqlType.INTEGER), ("stop", SqlType.INTEGER)),
        [(lim, stop)]))
    return engine


def set_limits(engine: Engine, lim: int, stop: int) -> None:
    limits = engine.database.table("L")
    limits.truncate()
    limits.insert_many([(lim, stop)])


def test_the_next_run_after_a_failure_is_correct(profile, monkeypatch):
    monkeypatch.setattr(recursive, "DEFAULT_RECURSION_CAP", 30)
    engine = counter_engine(profile, lim=10 ** 6, stop=-1)
    with pytest.raises(RecursionLimitError):
        engine.execute(COUNTER_SQL)
    assert not engine._plan_cache._entries  # a failed run keeps nothing
    set_limits(engine, lim=8, stop=4)  # 1 / 0 at n = 4
    with pytest.raises(ExecutionError):
        engine.execute(COUNTER_SQL)
    set_limits(engine, lim=3, stop=4)
    result = engine.execute_detailed(COUNTER_SQL)
    expected = counter_engine(profile, lim=3, stop=4).execute(COUNTER_SQL)
    assert rows(result) == sorted(expected.rows) == [(0,), (1,), (2,), (3,)]
    assert engine.execute_detailed(COUNTER_SQL).plans_compiled == 0


def test_no_relation_is_reachable_from_the_cache(profile):
    engine = graph_engine(profile)
    cold = engine.execute_detailed(wcc.sql())
    seed = Relation(INT_SEED, list(cold.relation.rows))
    engine.execute_detailed(wcc.sql(), warm_start={"C": WarmStart(seed)})
    engine.execute(JOIN_SQL)
    del cold, seed
    gc.collect()
    stack, seen, found = [engine._plan_cache], set(), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (Table, Database, type,
                                               types.ModuleType)):
            continue  # the catalog owns its tables
        seen.add(id(obj))
        if isinstance(obj, Relation):
            found.append(obj)
        if isinstance(obj, types.FunctionType):
            # What a compiled expression captures, not its module.
            stack.extend(obj.__closure__ or ())
            stack.extend(obj.__defaults__ or ())
        else:
            stack.extend(gc.get_referents(obj))
    assert found == []


# -- observability -----------------------------------------------------------


def test_the_query_log_and_metrics_tell_kept_from_compiled_plans():
    engine = graph_engine({})
    for _ in range(2):
        engine.execute(JOIN_SQL)
    first, second = engine.query_log.entries()[-2:]
    assert (first.plans_compiled, first.plan_cache_hits) == (1, 0)
    assert second.to_dict()["plans_compiled"] == 0
    assert second.to_dict()["plan_cache_hits"] == 1
    engine.execute("analyze E")
    engine.execute(JOIN_SQL)
    series = engine.metrics.to_json()

    def value(name, **labels):
        (match,) = [s["value"] for s in series[name]["series"]
                    if s["labels"] == labels]
        return match

    log = engine.query_log.entries()
    assert value("repro_plans_compiled_total") == \
        sum(entry.plans_compiled for entry in log)
    assert value("repro_plan_cache_hits_total") == 1
    assert value("repro_replans_total", reason="analyze") == 1
