"""A recorded statement runs the plans an unrecorded one runs.

Tracing, profiling and EXPLAIN ANALYZE record per-operator stats at the
operators' own boundaries (``repro.relational.physical.analyze``); they
select no code path.  Two spies pin that on the registry's graph
statements: the typed vectors the array kernels build
(``blocks.ArrayVector``), and the plan cache's ``plans_compiled`` /
``plan_cache_hits`` on a first and a repeated run.  And the operator
counts a recording reports on ``Engine()`` are the ones its row loops
report for the same plans.
"""

from __future__ import annotations

import re

import pytest

from repro.core.algorithms.registry import ALGORITHMS
from repro.datasets import preferential_attachment, random_dag
from repro.relational import Engine
from repro.relational.engine import parse_statement
from repro.relational.physical import batch, blocks
from repro.relational import delta_update
from repro.relational.recursive import RecursiveExecutor, StatementPlans

GRAPH_STATEMENTS = ("PR", "WCC", "SSSP", "TC", "KT")


def graph_for(key: str):
    if key == "TC":
        return random_dag(80, 2, seed=3)
    return preferential_attachment(80, 3, seed=3)


@pytest.fixture
def vectors_built(monkeypatch) -> list:
    """One entry per ``ArrayVector`` constructed."""
    built = []
    init = blocks.ArrayVector.__init__

    def counting(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(blocks.ArrayVector, "__init__", counting)
    return built


def statement_sql(key: str, graph) -> str:
    """The registry algorithm's with+ statement, as its run_sql runs it."""
    texts = []
    engine = Engine("oracle")
    execute = engine.execute_detailed

    def capture(sql, *args, **kwargs):
        texts.append(sql)
        return execute(sql, *args, **kwargs)

    engine.execute_detailed = capture
    ALGORITHMS[key].run_sql(engine, graph)
    return texts[-1]


def header_counts(report: str) -> tuple[int, int]:
    header = report.splitlines()[0]
    return (int(re.search(r"plans_compiled=(\d+)", header).group(1)),
            int(re.search(r"plan_cache_hits=(\d+)", header).group(1)))


def runs(key: str, route: str, vectors_built: list) -> list[tuple]:
    """(vectors built, plans compiled, plan cache hits) of a first and a
    repeated run of *key*'s statement, taken by *route*, on a columnar
    engine (row storage runs no array kernel) whose tables its run_sql
    loaded."""
    graph = graph_for(key)
    # A text of its own: a statement the engine has not seen yet, so the
    # first run compiles.
    sql = statement_sql(key, graph) + "\n"
    telemetry = route if route in ("on", "profile") else "off"
    engine = Engine("oracle", telemetry=telemetry)
    ALGORITHMS[key].run_sql(engine, graph)
    plans = StatementPlans(parse_statement(sql), "with+")
    out = []
    for _ in range(2):
        vectors_built.clear()
        if route == "explain":
            compiled, hits = header_counts(engine.explain_analyze(sql))
        elif route.startswith("executor"):
            executor = RecursiveExecutor(
                engine.database, engine.dialect, engine.policy,
                analyze=route == "executor-analyze", plans=plans)
            result = executor.execute(parse_statement(sql))
            compiled, hits = result.plans_compiled, result.plan_cache_hits
        else:
            result = engine.execute_detailed(sql)
            compiled, hits = result.plans_compiled, result.plan_cache_hits
        out.append((len(vectors_built), compiled, hits))
    return out


@pytest.mark.parametrize("key", GRAPH_STATEMENTS)
def test_recording_builds_the_same_vectors_and_keeps_the_plans(
        key, vectors_built):
    off = runs(key, "off", vectors_built)
    assert off[0][0] > 0, "the array kernels ran"
    assert off[1][1] < off[0][1] and off[1][2] > off[0][2], \
        "the repeat reused its plans"
    for route in ("on", "profile", "explain"):
        assert runs(key, route, vectors_built) == off, route
    assert runs(key, "executor-analyze", vectors_built) == \
        runs(key, "executor", vectors_built)


def report_lines(engine: Engine) -> list[tuple[str, str]]:
    """(operator line without timings, actual rows) per reported line."""
    lines = []
    for title, report in engine._plan_reports():
        lines.append((title, ""))
        for line in report.splitlines():
            operator = line.split(" (actual")[0]
            rows = re.search(r"actual rows=\d+|never executed", line)
            lines.append((operator, rows.group(0)))
    return lines


@pytest.mark.parametrize("key", ("PR", "WCC", "SSSP", "TC"))
def test_engine_reports_the_reference_operator_counts(key, monkeypatch):
    """The block pipeline credits every operator it folds in with the
    rows it hands on: ``Engine()``'s report reads, line for line, what
    the same plans report with every batch operator on its row loop,
    which records at each operator's boundary as the iterator model
    does — with every union-by-update round running its plan (WCC's and
    SSSP's rounds may otherwise take the delta step beside it, which no
    operator sees)."""
    monkeypatch.setattr(delta_update, "DELTA_UPDATE_SHARE", 0.0)
    monkeypatch.setattr(delta_update, "DELTA_UPDATE_ROWS", 0)
    graph = graph_for(key)
    reports = {}
    for name in ("engine", "reference"):
        with monkeypatch.context() as patch:
            if name == "reference":
                patch.setattr(batch, "_block_eligible", lambda node: False)
            engine = Engine("oracle", telemetry="on")
            ALGORITHMS[key].run_sql(engine, graph)
            reports[name] = report_lines(engine)
    assert reports["engine"] == reports["reference"]
    assert all(rows != "never executed"
               for _, rows in reports["engine"])
    assert any(title == "recursive branch"
               for title, _ in reports["engine"])
