"""Batch executor: kernel/tuple agreement, NULL-key joins, plan caching,
incremental maintenance counters, and EXPLAIN ANALYZE."""

import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.algorithms import bellman_ford, pagerank, wcc
from repro.core.operators import mv_join, mv_join_basic
from repro.core.semiring import MAX_TIMES, MIN_PLUS, MIN_TIMES, PLUS_TIMES
from repro.datasets import preferential_attachment
from repro.relational import Engine
from repro.relational.expressions import col
from repro.relational.physical import batch as batch_module
from repro.relational.physical import (
    BatchHashAggregate,
    BatchHashAntiJoin,
    BatchHashFullOuterJoin,
    BatchHashJoin,
    BatchHashLeftOuterJoin,
    BatchHashSemiJoin,
    HashAggregate,
    HashAntiJoin,
    HashFullOuterJoin,
    HashJoin,
    HashLeftOuterJoin,
    HashSemiJoin,
    RelationScan,
)
from repro.relational.relation import AggregateSpec, Relation
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.relational.types import SqlType

from ..conftest import engine_over_row_tables, reference_engine

DIALECTS = ("oracle", "db2", "postgres")

#: (semiring, SQL rendering of ⊕(⊙)) — the four MV-join instantiations the
#: paper's algorithms use (Table "standard instances" in core.semiring).
SEMIRING_SQL = [
    (PLUS_TIMES, "sum(A.ew * C.vw)"),
    (MIN_PLUS, "min(A.ew + C.vw)"),
    (MAX_TIMES, "max(A.ew * C.vw)"),
    (MIN_TIMES, "min(A.ew * C.vw)"),
]


def scan(cols, rows, alias=None):
    return RelationScan(Relation.from_pairs(cols, rows), alias)


def rows_set(relation):
    return set(relation.rows)


# -- kernel/tuple agreement on fixed inputs (incl. NULL join keys) ----------


LEFT = [(1, "a"), (2, "a"), (3, "b"), (4, None), (5, "z"), (6, None)]
RIGHT = [("a", 10), ("b", 20), ("c", 30), (None, 99)]

PAIRS = [
    (HashJoin, BatchHashJoin),
    (HashLeftOuterJoin, BatchHashLeftOuterJoin),
    (HashFullOuterJoin, BatchHashFullOuterJoin),
    (HashSemiJoin, BatchHashSemiJoin),
    (HashAntiJoin, BatchHashAntiJoin),
]


class TestKernelAgreement:
    @pytest.mark.parametrize("tuple_cls,batch_cls", PAIRS)
    def test_null_keys_both_sides(self, tuple_cls, batch_cls):
        """NULL join keys match nothing — on either side, in either kernel.

        Regression: HashSemiJoin/HashAntiJoin used to admit NULL probe keys
        when a NULL appeared on the build side.
        """
        args = ([col("L.k")], [col("R.k")])
        tuple_out = tuple_cls(scan(("id", "k"), LEFT, "L"),
                              scan(("k", "v"), RIGHT, "R"), *args).execute()
        batch_out = batch_cls(scan(("id", "k"), LEFT, "L"),
                              scan(("k", "v"), RIGHT, "R"), *args).execute()
        assert sorted(tuple_out.rows, key=repr) == \
            sorted(batch_out.rows, key=repr)
        # NULL never equals NULL: the NULL-key right row (value 99) may
        # survive only as an outer-padded row, never paired with a left row.
        assert all(not (99 in row and row[0] is not None)
                   for row in tuple_out.rows)

    def test_semi_anti_partition_left(self):
        """Semi-join and anti-join output partition the left input."""
        left = scan(("id", "k"), LEFT, "L")
        args = ([col("L.k")], [col("R.k")])
        semi = BatchHashSemiJoin(left, scan(("k", "v"), RIGHT, "R"),
                                 *args).execute()
        anti = BatchHashAntiJoin(scan(("id", "k"), LEFT, "L"),
                                 scan(("k", "v"), RIGHT, "R"), *args).execute()
        assert sorted(semi.rows + anti.rows) == sorted(LEFT)
        # The three NULL/unmatched left rows land on the anti side.
        assert rows_set(anti) == {(4, None), (5, "z"), (6, None)}

    def test_empty_build_side(self):
        args = ([col("L.k")], [col("R.k")])
        empty = scan(("k", "v"), [], "R")
        assert BatchHashJoin(scan(("id", "k"), LEFT, "L"), empty,
                             *args).execute().rows == ()
        assert sorted(BatchHashAntiJoin(scan(("id", "k"), LEFT, "L"),
                                        scan(("k", "v"), [], "R"),
                                        *args).execute().rows) == sorted(LEFT)

    @pytest.mark.parametrize("function", ["count", "sum", "min", "max", "avg"])
    def test_aggregate_agreement(self, function):
        rows = [(1, "a", 2.0), (2, "a", None), (3, "b", 5.0), (4, None, 1.0)]
        spec = [AggregateSpec(function, col("T.w"), "out")]
        tuple_out = HashAggregate(scan(("id", "g", "w"), rows, "T"),
                                  [col("T.g")], spec).execute()
        batch_out = BatchHashAggregate(scan(("id", "g", "w"), rows, "T"),
                                       [col("T.g")], spec).execute()
        assert sorted(tuple_out.rows, key=repr) == \
            sorted(batch_out.rows, key=repr)

    @pytest.mark.parametrize("function,expect", [
        ("count", 0), ("sum", None), ("min", None), ("max", None),
        ("avg", None),
    ])
    def test_aggregate_empty_input_no_keys(self, function, expect):
        spec = [AggregateSpec(function, col("T.w"), "out")]
        tuple_out = HashAggregate(scan(("id", "g", "w"), [], "T"), [],
                                  spec).execute()
        batch_out = BatchHashAggregate(scan(("id", "g", "w"), [], "T"), [],
                                       spec).execute()
        assert tuple_out.rows == batch_out.rows == ((expect,),)


# -- randomized semiring MV-join: batch == tuple == *_basic ------------------


matrices = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
    st.floats(0.125, 8.0, allow_nan=False), max_size=14)

vectors = st.dictionaries(st.integers(0, 5),
                          st.floats(0.125, 8.0, allow_nan=False), max_size=6)


@pytest.mark.parametrize("semiring,fold_sql", SEMIRING_SQL,
                         ids=[s.name for s, _ in SEMIRING_SQL])
@given(entries=matrices, vec=vectors)
@settings(max_examples=12, deadline=None)
def test_mv_join_semiring_agreement(semiring, fold_sql, entries, vec):
    """SQL MV-join on both engine profiles agrees with the RA operator and
    its basic-operations twin, under all four semirings."""
    a = Relation.from_pairs(("F", "T", "ew"),
                            [(f, t, w) for (f, t), w in entries.items()])
    c = Relation.from_pairs(("ID", "vw"), sorted(vec.items()))
    expected = mv_join(a, c, semiring).to_dict()
    assert mv_join_basic(a, c, semiring).to_dict() == pytest.approx(expected)

    sql = (f"SELECT A.F AS ID, {fold_sql} AS vw FROM A, C"
           f" WHERE A.T = C.ID GROUP BY A.F")
    for engine in (reference_engine("postgres"), Engine("postgres")):
        engine.database.load_edge_table("A", list(a.rows))
        engine.database.load_node_table("C", list(c.rows))
        got = {row[0]: row[1] for row in engine.execute(sql).rows}
        assert got == pytest.approx(expected), engine.storage


# -- end-to-end: Engine() against the reference profile ----------------------


@pytest.fixture(scope="module")
def graph():
    return preferential_attachment(60, 3.0, directed=True, seed=7)


class TestEndToEndAgreement:
    @pytest.mark.parametrize("dialect", DIALECTS)
    def test_pagerank(self, dialect, graph):
        base = pagerank.run_sql(reference_engine(dialect), graph).values
        batch = pagerank.run_sql(Engine(dialect), graph).values
        assert batch == pytest.approx(base)

    @pytest.mark.parametrize("dialect", DIALECTS)
    def test_wcc(self, dialect, graph):
        base = wcc.run_sql(reference_engine(dialect), graph).values
        batch = wcc.run_sql(Engine(dialect), graph).values
        assert batch == base

    def test_sssp(self, graph):
        base = bellman_ford.run_sql(reference_engine("postgres"), graph,
                                    0).values
        batch = bellman_ford.run_sql(Engine("postgres"), graph, 0).values
        assert batch == pytest.approx(base)

    def test_unknown_executor_rejected(self):
        """The profile is the one switch: no executor knob."""
        with pytest.raises(TypeError):
            Engine("postgres", executor="batch")


# -- plan caching in the recursive loop --------------------------------------


class TestPlanCache:
    @pytest.mark.parametrize("reference", [True, False],
                             ids=["tuple", "batch"])
    def test_branch_plans_compiled_once(self, reference, graph):
        engine = Engine("postgres", reference=reference)
        wcc.load_graph(engine, graph)
        wcc.prepare_symmetric_edges(engine)
        detail = engine.execute_detailed(wcc.sql())
        assert detail.iterations > 1
        # The initial query, the branch (once) and the final body.
        assert detail.plans_compiled == 3
        # Every later iteration reuses the single cached branch plan.
        assert detail.plan_cache_hits == detail.iterations - 1

    def test_cached_run_matches_fresh_runs(self, graph):
        """Plan reuse must not leak state between iterations."""
        engine = Engine("postgres")
        labels = wcc.run_sql(engine, graph).values
        reference = wcc.run_reference(graph).values
        assert labels == reference


# -- incremental table/index maintenance -------------------------------------


def keyed_table(rows, with_index=True):
    schema = Schema.of(("ID", SqlType.INTEGER), ("vw", SqlType.DOUBLE),
                       primary_key=("ID",))
    table = Table("P", schema)
    table.insert_many(rows)
    if with_index:
        table.create_index("p_id", ["ID"], "btree")
    table.index_rebuilds = 0
    table.incremental_index_ops = 0
    return table


class TestIncrementalMaintenance:
    def test_small_delta_avoids_rebuild(self):
        table = keyed_table([(i, float(i)) for i in range(20)])
        delta = Relation.from_pairs(("ID", "vw"), [(3, 30.0), (25, 25.0)])
        replaced, appended = table.apply_delta_by_key(delta, ["ID"])
        assert (replaced, appended) == (1, 1)
        assert table.index_rebuilds == 0
        # one delete+insert for the replaced row, one insert for the append
        assert table.incremental_index_ops == 3
        assert (3, 30.0) in table.rows and (25, 25.0) in table.rows

    def test_large_delta_falls_back_to_rebuild(self):
        table = keyed_table([(i, float(i)) for i in range(4)])
        delta = Relation.from_pairs(
            ("ID", "vw"), [(i, float(10 * i)) for i in range(4)])
        from repro.relational.strategies import apply_union_by_update
        from repro.relational.database import Database
        apply_union_by_update(Database(), table, delta, ["ID"],
                              "full_outer_join")
        assert table.index_rebuilds == 1
        assert sorted(table.rows) == [(i, float(10 * i)) for i in range(4)]

    def test_merge_strategy_is_incremental(self):
        from repro.relational.strategies import apply_union_by_update
        from repro.relational.database import Database
        table = keyed_table([(i, float(i)) for i in range(30)])
        delta = Relation.from_pairs(("ID", "vw"), [(5, 50.0), (99, 9.0)])
        apply_union_by_update(Database(), table, delta, ["ID"], "merge")
        assert table.index_rebuilds == 0
        assert table.incremental_index_ops == 3
        assert (5, 50.0) in table.rows and (99, 9.0) in table.rows

    def test_index_stays_consistent_after_delta(self):
        table = keyed_table([(i, float(i)) for i in range(10)])
        delta = Relation.from_pairs(("ID", "vw"), [(4, 44.0), (11, 11.0)])
        table.apply_delta_by_key(delta, ["ID"])
        index = table.indexes["p_id"]
        assert sorted(index.lookup((4,))) == [(4, 44.0)]
        assert sorted(index.lookup((11,))) == [(11, 11.0)]
        assert index.lookup((5,)) == [(5, 5.0)]

    def test_insert_many_is_atomic_on_key_violation(self):
        table = keyed_table([(1, 1.0)], with_index=False)
        from repro.relational.errors import ConstraintError
        with pytest.raises(ConstraintError):
            table.insert_many([(2, 2.0), (2, 3.0)])  # intra-batch duplicate
        assert table.rows == [(1, 1.0)]
        with pytest.raises(ConstraintError):
            table.insert_many([(3, 3.0), (1, 9.0)])  # clashes with existing
        assert table.rows == [(1, 1.0)]

    @pytest.mark.parametrize("strategy", ["merge", "update_from",
                                          "full_outer_join", "drop_alter"])
    def test_recursive_loop_runs_under_every_strategy(self, strategy, graph):
        engine = Engine("postgres")
        if not engine.dialect.supports_union_by_update(strategy):
            pytest.skip(f"postgres does not model {strategy}")
        engine.union_by_update_strategy = strategy
        labels = wcc.run_sql(engine, graph).values
        assert labels == wcc.run_reference(graph).values


# -- EXPLAIN ANALYZE ---------------------------------------------------------


class TestExplainAnalyze:
    def test_non_recursive_report(self, graph):
        engine = Engine("postgres")
        engine.load_graph(graph)
        report = engine.explain_analyze(
            "SELECT E.F, count(*) AS c FROM E, V"
            " WHERE E.F = V.ID GROUP BY E.F")
        assert "Hash Join" in report
        assert "actual rows=" in report and "loops=1" in report

    @pytest.mark.parametrize("reference", [True, False],
                             ids=["tuple", "batch"])
    def test_recursive_report_accumulates_iterations(self, reference, graph):
        engine = Engine("postgres", reference=reference)
        wcc.load_graph(engine, graph)
        wcc.prepare_symmetric_edges(engine)
        detail = engine.execute_detailed(wcc.sql())
        report = engine.explain_analyze(wcc.sql())
        assert f"iterations={detail.iterations}" in report
        # EXPLAIN ANALYZE runs the statement's kept plans.
        assert "plans_compiled=0" in report
        # The cached branch plan ran once per iteration that did not
        # read only the last round's changed rows.
        planned = sum(s.binding == "full" for s in detail.per_iteration)
        assert f"loops={planned}" in report
        assert "recursive branch:" in report and "final body:" in report

    def test_analyze_does_not_change_results(self, graph):
        engine = Engine("postgres")
        wcc.load_graph(engine, graph)
        wcc.prepare_symmetric_edges(engine)
        expected = engine.execute(wcc.sql())
        engine.explain_analyze(wcc.sql())
        assert rows_set(engine.execute(wcc.sql())) == rows_set(expected)



# -- the row loops on Engine(): TEXT and NULL data ---------------------------

#: TEXT keys and NULLs on both sides: no typed view anywhere.
ROW_LOOP_TABLES = {
    "A": (Schema.of(("k", SqlType.TEXT), ("v", SqlType.INTEGER)),
          [("a", 1), ("a", None), ("b", 3), (None, 4), ("z", 5),
           (None, None)]),
    "B": (Schema.of(("k", SqlType.TEXT), ("w", SqlType.DOUBLE)),
          [("a", 0.5), ("b", None), ("c", 2.0), (None, 9.0)]),
}

#: statement -> the batch operator whose row loop must answer it on an
#: attached catalog of row tables (the aggregates: which row loop).
ROW_LOOPS = {
    "join": ("select A.k, A.v, B.w from A, B where A.k = B.k",
             "BatchHashJoin"),
    "left": ("select A.k, A.v, B.w from A left join B on A.k = B.k",
             "BatchHashLeftOuterJoin"),
    "full": ("select A.v, B.w from A full join B on A.k = B.k",
             "BatchHashFullOuterJoin"),
    "semi": ("select k, v from A"
             " where exists (select * from B where B.k = A.k)",
             "BatchHashSemiJoin"),
    "anti": ("select k, v from A"
             " where not exists (select * from B where B.k = A.k)",
             "BatchHashAntiJoin"),
    "filter": ("select k, v from A where v > 1 or k = 'z'", "BatchFilter"),
    "project": ("select k, v * 2 as u from A", "BatchProject"),
    "aggregate": ("select k, max(v) as m from A group by k", "single"),
    "aggregates": ("select k, count(*) as n, sum(v) as s from A group by k",
                   "multi"),
}


def load_row_loop_tables(engine):
    for name, (schema, rows) in ROW_LOOP_TABLES.items():
        engine.database.register(name, Relation(schema, rows))


@pytest.mark.parametrize("shape", sorted(ROW_LOOPS))
def test_row_loops_answer_text_and_null_data(shape, monkeypatch):
    """Each batch row loop answers on ``Engine()`` what the reference
    profile answers: over columnar tables (TEXT and NULL values decline
    the array kernels) and over an attached catalog of row tables, where
    the named row loop runs."""
    sql, entry = ROW_LOOPS[shape]
    ran = []
    materialize = batch_module._materialize
    row_aggregate = BatchHashAggregate._row_aggregate

    def materializing(node):
        frame = sys._getframe(1)
        while "self" not in frame.f_locals:
            frame = frame.f_back
        ran.append(type(frame.f_locals["self"]).__name__)
        return materialize(node)

    def aggregating(self):
        ran.append("single" if len(self.aggregates) == 1 else "multi")
        return row_aggregate(self)

    monkeypatch.setattr(batch_module, "_materialize", materializing)
    monkeypatch.setattr(BatchHashAggregate, "_row_aggregate", aggregating)
    reference = reference_engine()
    load_row_loop_tables(reference)
    want = sorted(reference.execute(sql).rows, key=repr)
    columnar = Engine("oracle")
    load_row_loop_tables(columnar)
    assert sorted(columnar.execute(sql).rows, key=repr) == want
    ran.clear()
    over_rows = engine_over_row_tables(load_row_loop_tables)
    assert sorted(over_rows.execute(sql).rows, key=repr) == want
    assert entry in ran
