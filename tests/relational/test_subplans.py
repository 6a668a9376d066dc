"""Planning executes nothing: subqueries, derived tables and non-recursive
WITH are subplans of the statement's plan.

IN / NOT IN subqueries and derived tables plan inline, an EXISTS becomes
a semi or anti join (on no keys when uncorrelated), and a scalar
subquery or a CTE is a subplan of a ``Bind`` that runs it once per
execution.  So every statement — with+ branches holding subqueries
included — is planned once and kept, EXPLAIN runs no operator, and
EXPLAIN ANALYZE covers every branch.
"""

from __future__ import annotations

import gc
import math
import random
import types

import pytest

from repro.core.algorithms import toposort
from repro.core.algorithms.common import load_graph
from repro.datasets import random_dag
from repro.relational import (REFERENCE_PROFILE, Engine, Relation,
                              delta_update)
from repro.relational.database import Database
from repro.relational.table import Table
from repro.relational.physical import TableScan
from repro.relational.schema import Column, Schema, SqlType
from repro.relational.sql.parser import parse_statement

PROFILES = {"default": {}, "reference": dict(REFERENCE_PROFILE)}


@pytest.fixture(params=sorted(PROFILES))
def profile(request) -> dict:
    return PROFILES[request.param]


def _engine(profile: dict) -> Engine:
    rng = random.Random(7)
    engine = Engine("oracle", **profile)
    edges = sorted({(rng.randrange(30), rng.randrange(30)) for _ in range(70)})
    engine.database.load_edge_table(
        "E", [(f, t, rng.choice((0.5, 1.0, 2.0))) for f, t in edges])
    engine.database.load_node_table(
        "V", [(i, rng.choice((0.1, 0.5, 0.9))) for i in range(30)])
    return engine


def _outcome(engine: Engine, sql: str):
    try:
        result = engine.execute_detailed(sql)
    except Exception as error:  # noqa: BLE001 — compared across profiles
        return ("error", type(error).__name__, str(error)), None
    return sorted(map(repr, result.relation.rows)), result


#: Five statements whose subqueries the parent's EXPLAIN executed.
EXPLAINED = {
    "in": "select ID from V where ID in (select T from E)",
    "derived table": "select X.F from (select F from E) as X",
    "exists": "select ID from V where exists (select F from E)",
    "scalar": "select ID from V where vw > (select avg(vw) from V)",
    "nested with": "select ID from V where ID in"
                   " (with W as (select T from E) select T from W)",
}

UBU = """
with R(ID, d) as (
  (select ID, 0.0 from V where ID in (select F from E where T < 5))
  union by update ID
  (select X.ID, min(X.d) from
     ((select E.T as ID, R.d + E.ew + (select min(ew) from E) as d
       from R, E where R.ID = E.F and exists (select F from E where F > 2))
      union all
      (select ID, d from R)) as X
   group by X.ID)
  maxrecursion 12
) select ID, d from R"""

UNION = """
with R(F, T) as (
  (select F, T from E where F < 3)
  union
  (select R.F, X.T from R,
     (select F, T from E where T not in (select ID from V where vw > 0.8))
       as X
   where R.T = X.F
     and not exists (select ID from V where V.ID = X.T and V.vw < 0.2))
) select F, T from R"""

NESTED_IN_BRANCH = """
with R(F, T) as (
  (select F, T from E where F = 1)
  union
  (select R.F, E.T from R, E where R.T = E.F
     and E.T in (with W as (select T from E where F < 20) select T from W))
) select F, T from R"""

SEARCH_CYCLE = """
with R(F, T) as (
  (select F, T from E where F = 1)
  union all
  (select R.T as F, E.T as T from R, E
   where R.T = E.F and E.T in (select ID from V where vw < 0.9))
)
search depth first by T set ord
cycle T set is_cycle to 'Y' default 'N'
select * from R"""

#: Plain statements and with+ branches holding every kind of subquery.
DIFFERENTIAL = {
    "in": "select ID from V where ID in (select T from E where F < 10)",
    "not in": "select ID from V where ID not in (select T from E)",
    "exists": "select ID from V where exists"
              " (select 1 from E where E.F = V.ID and E.ew > 0.5)",
    "not exists": "select ID from V where not exists"
                  " (select T from E where E.T = V.ID)",
    "uncorrelated exists": "select ID from V where exists"
                           " (select F from E where F > 10)",
    "uncorrelated not exists": "select ID from V where not exists"
                               " (select F from E where F > 10)",
    "uncorrelated empty exists": "select ID from V where exists"
                                 " (select F from E where F < 0)",
    "scalar": "select ID, vw - (select min(vw) from V) as d from V"
              " where vw > (select avg(vw) from V)",
    "scalar in group by": "select (select max(F) from E) + ID as k,"
                          " count(*) as c from V"
                          " group by (select max(F) from E) + ID",
    "scalar of no row": "select ID from V"
                        " where vw = (select vw from V where ID < 0)",
    "scalar of two rows": "select ID from V where ID = (select T from E)",
    "scalar of two columns": "select ID from V"
                             " where ID = (select F, T from E)",
    "derived table": "select X.F, count(*) as c from"
                     " (select F from E where T > 3) as X group by X.F",
    "with": "with A as (select F, T from E where F < 15),"
            " B(x) as (select T from A where T > 3)"
            " select F, x from A, B where A.T = B.x",
    "nested with": "select * from (with W as (select F, T from E"
                   " where F < 5) select T from W) as X",
    "with+ union by update": UBU,
    "with+ union": UNION,
    "with+ nested with": NESTED_IN_BRANCH,
    "search and cycle": SEARCH_CYCLE,
}


@pytest.mark.parametrize("name", sorted(EXPLAINED))
def test_explain_runs_no_operator(profile, name, monkeypatch):
    engine = _engine(profile)
    scans = []
    original = TableScan.rows

    def counting(self):
        scans.append(self.table.name)
        return original(self)

    monkeypatch.setattr(TableScan, "rows", counting)
    text = engine.explain(EXPLAINED[name])
    assert scans == []
    assert "Seq Scan" in text


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_subqueries_agree_across_profiles_and_plan_once(name):
    sql = DIFFERENTIAL[name]
    outcomes = {}
    for key, profile in PROFILES.items():
        engine = _engine(profile)
        first, result = _outcome(engine, sql)
        outcomes[key] = first
        if result is None:
            continue
        again, repeated = _outcome(engine, sql)
        assert again == first
        assert repeated.plans_compiled == 0
        assert repeated.plan_cache_hits > 0
    assert outcomes["default"] == outcomes["reference"]


def test_the_error_texts_are_kept():
    engine = _engine({})
    two_rows, _ = _outcome(engine, DIFFERENTIAL["scalar of two rows"])
    two_columns, _ = _outcome(engine, DIFFERENTIAL["scalar of two columns"])
    assert two_rows == ("error", "PlanError",
                        "scalar subquery returned more than one row")
    assert two_columns == ("error", "PlanError",
                           "scalar subquery must return one column")


def test_a_scalar_subquery_runs_once_per_execution():
    engine = _engine({})
    sql = "select ID from V where vw > (select avg(vw) from V)"
    before = engine.execute(sql)
    engine.database.table("V").insert_many([(100, 0.95), (101, 0.95)])
    after = engine.execute_detailed(sql)
    assert after.plans_compiled == 0
    assert len(after.relation) == len(before) + 2


def test_a_scalar_subquery_filter_answers_on_arrays():
    engine = _engine({})
    report = engine.explain_analyze(DIFFERENTIAL["scalar"])
    (line,) = [line for line in report.splitlines() if "-> Filter" in line]
    assert "$scalar1" in line and "path=array" in line


#: with+ branches whose build side (E) reads a scalar subquery's value,
#: in a filter on it and in its join key; W's one row changes between runs
KEPT_BUILD_READS_SCALAR = {
    "filter": """
        with R(ID) as (
          (select ID from V where ID < 5)
          union
          (select E.T from R, E where R.ID = E.F
             and E.ew >= (select max(vw) from W))
        ) select ID from R""",
    "join key": """
        with R(ID) as (
          (select ID from V where ID < 5)
          union
          (select E.T from R, E where R.ID = E.F + (select max(vw) from W))
        ) select ID from R""",
}


@pytest.mark.parametrize("name", sorted(KEPT_BUILD_READS_SCALAR))
def test_a_kept_build_side_rereads_its_scalar_subquery(name):
    """A build side is kept across executions only while the scalar
    subquery values it reads are."""
    sql = KEPT_BUILD_READS_SCALAR[name]
    engine = _engine({})
    engine.database.load_node_table("W", [(1, 2.0)])
    before = sorted(engine.execute(sql).rows)
    engine.database.table("W").delete_where(lambda row: True)
    engine.database.table("W").insert_many([(1, 0.5)])
    twin = _engine({})
    twin.database.load_node_table("W", [(1, 0.5)])
    after = engine.execute_detailed(sql)
    assert after.plans_compiled == 0
    assert sorted(after.relation.rows) == sorted(twin.execute(sql).rows)
    assert sorted(after.relation.rows) != before


def test_a_cte_is_bound_once_for_every_reference():
    engine = Engine("oracle")
    sql = ("with R as (select random() as x)"
           " select A.x - B.x as d from R as A, R as B")
    for _ in range(3):
        assert engine.execute(sql).rows == ((0.0,),)


def test_each_random_scalar_subquery_draws_for_itself(profile):
    engine = Engine("oracle", **profile)
    sql = "select (select random()) as a, (select random()) as b"
    for _ in range(2):
        (a, b), = engine.execute(sql).rows
        assert a != b


def test_a_nested_cte_is_sized_by_its_subplan(profile):
    engine = _engine(profile)
    report = engine.explain(EXPLAINED["nested with"])
    scan = next(line for line in report.splitlines()
                if "Relation Scan [W]" in line)
    assert f"(est_rows={len(engine.database.table('E'))})" in scan


def _relations_held(root) -> list[Relation]:
    """The non-empty relations reachable from *root*, not looking into
    tables, the database or modules."""
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
                obj, (Table, Database, type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, Relation) and len(obj):
            found.append(obj)
        if isinstance(obj, types.FunctionType):
            stack.extend(obj.__defaults__ or ())
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ()
                         if cell.cell_contents is not None)
        else:
            stack.extend(gc.get_referents(obj))
    return found


#: statements whose kept plans bind a nested WITH's CTE
NESTED_WITH = ("nested with", "with+ nested with")


@pytest.mark.parametrize("name", NESTED_WITH)
def test_a_kept_plan_holds_no_cte_result(profile, name):
    engine = _engine(profile)
    sql = DIFFERENTIAL[name]
    engine.execute(sql)
    assert engine.execute_detailed(sql).plans_compiled == 0
    assert _relations_held(engine._plan_cache) == []


def test_search_and_cycle_plan_their_branch_once():
    engine = _engine({})
    first = engine.execute_detailed(SEARCH_CYCLE)
    # the initial query, the branch (once, not per working row), the body
    assert first.plans_compiled == 3
    assert first.plan_cache_hits >= first.iterations


@pytest.mark.parametrize("variant", toposort.ANTI_JOIN_VARIANTS)
def test_toposort_variants_keep_every_plan(profile, variant):
    engine = Engine("oracle", **profile)
    load_graph(engine, random_dag(60, 2.0, seed=3))
    sql = toposort.sql_variant(variant)
    first = engine.execute_detailed(sql)
    again = engine.execute_detailed(sql)
    assert again.plans_compiled == 0
    assert sorted(again.relation.rows) == sorted(first.relation.rows)
    report = engine.explain_analyze(sql)
    assert "recursive branch:" in report
    for name in ("L_n", "V_1", "E_1", "T_n"):
        assert f"computed by {name}:" in report


def test_delta_update_rejects_a_branch_holding_a_subquery():
    schema = Schema((Column("ID", SqlType.INTEGER),
                     Column("d", SqlType.DOUBLE)))
    proven = parse_statement(UBU.replace(
        " + (select min(ew) from E)", "").replace(
        " and exists (select F from E where F > 2)", ""))
    assert delta_update.delta_update_is_exact(proven.ctes[0], schema)
    for sql in (UBU,
                UBU.replace(" and exists (select F from E where F > 2)", ""),
                UBU.replace(" + (select min(ew) from E)", "")):
        (cte,) = parse_statement(sql).ctes
        assert not delta_update.delta_update_is_exact(cte, schema)


NAN_EDGES = [(0, 0, 0.0), (0, 1, 0.0), (0, 2, 0.0), (0, 3, 0.0), (0, 4, 0.0),
             (1, 0, 0.0), (1, 1, math.nan)]

NAN_SQL = """
with R(ID, d) as (
  (select ID, 0 from V where ID in (1))
  union by update ID
  (select X.ID, {function}(X.d) from
     ((select E.T as ID, R.d + E.ew as d from R, E where R.ID = E.F)
      union all
      (select ID, d from R)) as X
   group by X.ID)
  maxrecursion 2
) select ID, d from R"""


@pytest.mark.parametrize("function", ["min", "max"])
def test_min_and_max_over_a_nan_agree_across_profiles(function):
    """NaN sorts above every number whatever the join order puts first:
    ``min`` skips it, ``max`` returns it."""
    got = {}
    for key, profile in PROFILES.items():
        engine = Engine("oracle", **profile)
        engine.database.load_edge_table("E", NAN_EDGES)
        engine.database.load_node_table("V", [(i, 0.0) for i in range(5)])
        got[key] = dict(engine.execute(NAN_SQL.format(function=function)).rows)
    assert repr(sorted(got["default"].items())) \
        == repr(sorted(got["reference"].items()))
    values = got["default"]
    assert math.isnan(values[1]) == (function == "max")
    assert not math.isnan(values[2])


@pytest.mark.parametrize("order", [1, -1])
def test_the_nan_rule_does_not_depend_on_row_order(profile, order):
    rows = [(1, math.nan), (1, 2.0), (1, 0.0), (2, math.nan), (3, 0.0),
            (3, -0.0)][::order]
    engine = Engine("oracle", **profile)
    engine.database.register("G", Relation.from_pairs(("g", "w"), rows))
    out = {g: (lo, hi) for g, lo, hi in engine.execute(
        "select g, min(w) as lo, max(w) as hi from G group by g").rows}
    assert out[1][0] == 0.0 and math.isnan(out[1][1])
    assert math.isnan(out[2][0]) and math.isnan(out[2][1])
    # first seen between equal zeros
    first_zero = rows[[i for i, r in enumerate(rows) if r[0] == 3][0]][1]
    assert repr(out[3][0]) == repr(first_zero) == repr(out[3][1])
